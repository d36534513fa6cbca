//! Property test for the master state machine: under arbitrary interleavings of worker
//! registration, pulls, completions, deaths and clock advances, no run-unit is ever lost or
//! double-counted, the structural invariants hold after every operation, and the job always
//! drains to completion.
//!
//! The state machine is driven directly (no simulation runs) with placeholder artifacts, so
//! thousands of interleavings are cheap.

use p2pgrid_core::Algorithm;
use p2pgrid_experiments::rununit::UNIT_FORMAT;
use p2pgrid_experiments::{CampaignSpec, ExperimentScale};
use p2pgrid_server::failover::{declare_dead, expire_workers};
use p2pgrid_server::state::{CompleteOutcome, JobState, MasterState, PullOutcome};
use p2pgrid_server::{JobId, MasterConfig, WorkerId};
use proptest::prelude::*;
use serde::json;

fn spec(units: usize) -> CampaignSpec {
    // seeds × one algorithm = `units` run-units; the spec is only decomposed, never run.
    CampaignSpec {
        name: "prop".to_string(),
        scale: ExperimentScale::Smoke,
        seeds: (1..=units as u64).collect(),
        algorithms: vec![Algorithm::Dsmf],
        workload: None,
    }
}

/// The smallest document the master stores as unit `unit`'s artifact.
fn fake_artifact(unit: usize) -> json::Value {
    json::parse(&format!(
        "{{\"format\": \"{UNIT_FORMAT}\", \"unit\": {unit}}}"
    ))
    .expect("literal artifact parses")
}

/// Deterministic splitmix64, the same generator the serde shim's proptests use.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One worker's view: its id and the unit it currently holds, if any.
struct Sim {
    state: MasterState,
    now_ms: u64,
    workers: Vec<(WorkerId, Option<usize>)>,
    /// Accepted completions per unit — the double-count detector.
    accepted: Vec<u32>,
    job: JobId,
}

impl Sim {
    fn new(units: usize) -> Self {
        let mut state = MasterState::new(MasterConfig {
            heartbeat_timeout_ms: 1_000,
            // Effectively unbounded so arbitrary death sequences cannot fail the job; the
            // bounded-budget path has its own deterministic test.
            retry_budget: 1_000_000,
            backoff_ms: 100,
        });
        let (job, n) = state.submit(spec(units)).expect("valid spec");
        assert_eq!(n, units);
        Sim {
            state,
            now_ms: 0,
            workers: Vec::new(),
            accepted: vec![0; units],
            job,
        }
    }

    fn register(&mut self) {
        let id = self
            .state
            .register(format!("w{}", self.workers.len()), self.now_ms);
        self.workers.push((id, None));
    }

    fn pull(&mut self, slot: usize) {
        let (id, held) = self.workers[slot];
        if held.is_some() {
            return; // one unit at a time per simulated worker
        }
        match self.state.pull(id, self.now_ms) {
            PullOutcome::Assigned { unit, .. } => self.workers[slot].1 = Some(unit.index),
            PullOutcome::Idle => {}
            PullOutcome::Unregistered => {
                // Expired: forget the stale identity; a later Register op replaces it.
                self.workers.remove(slot);
            }
        }
    }

    fn complete(&mut self, slot: usize) {
        let (id, Some(unit)) = self.workers[slot] else {
            return;
        };
        let outcome = self
            .state
            .complete(id, self.job, unit, fake_artifact(unit), self.now_ms);
        if outcome == CompleteOutcome::Accepted {
            self.accepted[unit] += 1;
        }
        self.workers[slot].1 = None;
    }

    fn die(&mut self, slot: usize) {
        let (id, _) = self.workers.remove(slot);
        declare_dead(&mut self.state, id, self.now_ms);
    }

    fn advance(&mut self, delta: u64) {
        self.now_ms += delta;
        let expired: Vec<WorkerId> = expire_workers(&mut self.state, self.now_ms);
        // Drop simulated workers the master no longer believes in.
        self.workers.retain(|(id, _)| !expired.contains(id));
    }

    fn check(&self) {
        self.state.assert_invariants();
        for (unit, &count) in self.accepted.iter().enumerate() {
            assert!(count <= 1, "unit {unit} double-counted ({count} accepts)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn no_unit_is_lost_or_double_counted(seed in 0u64..1_000_000) {
        let mut rng = Mix(seed);
        let units = 2 + (rng.below(4) as usize); // 2..=5 units
        let mut sim = Sim::new(units);
        sim.register();

        for _ in 0..60 {
            let roll = rng.below(100);
            if roll < 15 {
                sim.register();
            } else if roll < 50 {
                let slot = rng.below(sim.workers.len().max(1) as u64) as usize;
                if slot < sim.workers.len() {
                    sim.pull(slot);
                }
            } else if roll < 75 {
                let slot = rng.below(sim.workers.len().max(1) as u64) as usize;
                if slot < sim.workers.len() {
                    sim.complete(slot);
                }
            } else if roll < 85 {
                if !sim.workers.is_empty() {
                    let slot = rng.below(sim.workers.len() as u64) as usize;
                    sim.die(slot);
                }
            } else {
                sim.advance(rng.below(1_500));
            }
            sim.check();
        }

        // Drain: one fresh, diligent worker finishes whatever is left.
        sim.advance(5_000); // expire every straggler so held units requeue
        sim.register();
        let slot = sim.workers.len() - 1;
        let mut spins = 0;
        while !matches!(sim.state.jobs()[0].state, JobState::Complete) {
            sim.pull(slot);
            sim.complete(slot);
            sim.advance(200); // outlast any retry backoff
            sim.check();
            spins += 1;
            prop_assert!(spins < 10_000, "job failed to drain: a unit was lost");
        }
        for (unit, &count) in sim.accepted.iter().enumerate() {
            prop_assert_eq!(count, 1, "unit {} completed {} times", unit, count);
        }
    }
}
