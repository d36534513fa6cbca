//! Simulation sessions: stepable runs over a shared [`Scenario`].
//!
//! A [`Simulation`] is one in-flight run of a scheduler on a pre-built world.  It can be
//! driven incrementally — [`Simulation::step`] executes one virtual instant of the engine,
//! [`Simulation::run_until`] advances to a virtual instant,
//! [`Simulation::run`] drives to the horizon — and it carries the observer seam: any number
//! of [`Observer`]s registered via [`Simulation::observe`] receive every externally
//! meaningful engine event as it happens.
//!
//! ```
//! use p2pgrid_core::scenario::Scenario;
//! use p2pgrid_core::{Algorithm, GridConfig};
//! use p2pgrid_sim::{SimDuration, SimTime};
//!
//! let scenario = Scenario::build(GridConfig::small(12).with_seed(1)).unwrap();
//! let mut session = scenario.simulate_algorithm(Algorithm::Dsmf);
//! session.run_until(SimTime::ZERO + SimDuration::from_hours(2)); // peek mid-run...
//! println!("backlog after 2 h: {} tasks", session.sample().ready_tasks);
//! let report = session.run();                                    // ...then drive to the end
//! assert_eq!(report.submitted, 24);
//! ```
//!
//! Observers never perturb the engine: a fully-stepped session — with or without observers —
//! produces a report byte-identical to an unobserved [`Simulation::run`] at the same seed.

use crate::algorithm::AlgorithmConfig;
use crate::engine::Engine;
use crate::observer::{GridSample, Observer};
use crate::report::SimulationReport;
use crate::scenario::Scenario;
use p2pgrid_sim::SimTime;

/// One in-flight simulation run: step it, observe it, or drive it to the horizon.
///
/// Created by [`Scenario::simulate`] (or [`Scenario::simulate_algorithm`]); see the
/// [module docs](self) for the lifecycle.  `'obs` is the lifetime of the registered
/// observers — a session without observers is `Simulation<'static>`.
pub struct Simulation<'obs> {
    engine: Engine,
    observers: Vec<&'obs mut dyn Observer>,
    started: bool,
}

impl<'obs> Simulation<'obs> {
    pub(crate) fn start(scenario: &Scenario, algo: AlgorithmConfig) -> Self {
        Simulation {
            engine: Engine::new(scenario, algo),
            observers: Vec::new(),
            started: false,
        }
    }

    /// Register an observer.  Must happen before the first step — observers registered later
    /// would silently miss events, so that is rejected with a panic.
    ///
    /// The observer is borrowed (`&mut`), not owned: its recorded data stays with the caller
    /// and remains available after [`Simulation::run`] consumes the session.
    #[must_use = "observe returns the session; chain it or rebind it"]
    pub fn observe(mut self, observer: &'obs mut dyn Observer) -> Self {
        assert!(
            !self.started,
            "observers must be registered before the first step"
        );
        self.observers.push(observer);
        self
    }

    /// Announce the time-zero submissions exactly once, before the first delivered event.
    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            self.engine.announce_submissions(&mut self.observers);
        }
    }

    /// Execute exactly one virtual instant — every event due at it, across every node, and
    /// the grid-wide cadences due at it — and return it, or `None` when the run is over
    /// (event queues drained, or every remaining event lies beyond the horizon).
    pub fn step(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.engine.step(&mut self.observers)
    }

    /// Execute every instant at or before `until` and return how many ran.  Events exactly
    /// at `until` are included, matching the horizon's inclusive semantics.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.ensure_started();
        let mut delivered = 0;
        while self.engine.peek_time().is_some_and(|t| t <= until) {
            if self.engine.step(&mut self.observers).is_none() {
                break;
            }
            delivered += 1;
        }
        delivered
    }

    /// Drive the run to its horizon and return the report (the one-shot path, byte-identical
    /// to stepping it instant by instant).
    pub fn run(mut self) -> SimulationReport {
        self.ensure_started();
        while self.engine.step(&mut self.observers).is_some() {}
        self.finish()
    }

    /// Close the session where it stands and return the report.  A session that already ran
    /// out of events reports at the horizon (exactly like [`Simulation::run`]); a session cut
    /// short reports at its current virtual time.
    pub fn finish(mut self) -> SimulationReport {
        self.ensure_started();
        self.engine.finish(&mut self.observers)
    }

    /// Current virtual time: the last executed instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The instant the next [`Simulation::step`] would execute, or `None` when the run is
    /// over.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.engine.peek_time()
    }

    /// The run's horizon (virtual end time).
    pub fn horizon(&self) -> SimTime {
        self.engine.horizon()
    }

    /// A live aggregate snapshot of the grid — the same [`GridSample`] the metrics-cadence
    /// observer hook receives, computable at any point of a stepped run.
    pub fn sample(&self) -> GridSample {
        self.engine.grid_sample()
    }

    /// Label of the scheduler driving this session (e.g. `"DSMF"`).
    pub fn algorithm(&self) -> String {
        self.engine.label()
    }
}
