//! # p2pgrid-server — campaign sweep execution as a service
//!
//! A master/worker job service that runs [`CampaignSpec`] sweeps (scenario configuration ×
//! seed range × algorithm set × optional workload) across a fleet of worker processes and
//! merges the per-unit artifacts into one result that is **byte-identical** to a local run
//! of the same spec — regardless of worker count, join order, or workers dying mid-campaign.
//!
//! Three binaries ship with the crate:
//!
//! * `p2pgrid-master` — accepts jobs, decomposes them into run-units, tracks workers.
//! * `p2pgrid-worker` — registers, pulls run-units, executes them through a `UnitRunner`,
//!   which derives every seed's world from one shared base `Scenario`, streams artifacts
//!   back.
//! * `p2pgrid-submit` — submit a spec, poll status, fetch the merged artifact.
//!
//! ## Architecture
//!
//! ```text
//!   p2pgrid-submit ──┐                      ┌── p2pgrid-worker (UnitRunner)
//!                    │  ndjson over TCP     │
//!                    ├──► p2pgrid-master ◄──┤
//!   (or loopback,    │    MasterState       │
//!    in-process)  ───┘    + failover        └── p2pgrid-worker (UnitRunner)
//! ```
//!
//! Every layer is a separate module with a pure seam for tests:
//!
//! * [`protocol`] — typed requests/responses and their newline-delimited JSON wire codec.
//! * [`state`] — the master's state machine; all methods take `now_ms` explicitly.
//! * [`failover`] — heartbeat expiry and run-unit requeueing with bounded retries.
//! * [`handlers`] — the single `Request → Response` dispatcher shared by all transports.
//! * [`transport`] — the [`Transport`] trait and the in-process [`LoopbackTransport`],
//!   which still round-trips every message through its wire encoding and carries a
//!   fault-injection hook for killing workers mid-campaign.
//! * [`tcp`] — the same protocol over std-library TCP sockets.
//! * [`worker`] / [`client`] — the two peer roles, generic over [`Transport`].
//!
//! ## Determinism
//!
//! The simulation itself is deterministic and the decomposition is canonical (seed-major,
//! unit `index = seed_pos * algorithms + algo_pos`), so the master can merge artifacts in
//! index order no matter which worker produced them or when.  Workers that die mid-unit are
//! detected by heartbeat timeout (or immediately on a dropped TCP connection) and their
//! units requeue with linear backoff under a bounded retry budget, mirroring the
//! simulation's own `RecoveryPolicy::Retry`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod failover;
pub mod handlers;
pub mod protocol;
pub mod state;
pub mod tcp;
pub mod transport;
pub mod worker;

pub use client::Client;
pub use p2pgrid_experiments::rununit::CampaignSpec;
pub use protocol::{JobId, Request, Response, WorkerId};
pub use state::{MasterConfig, MasterState};
pub use transport::{LoopbackMaster, LoopbackTransport, Transport, TransportError};
pub use worker::{Step, Worker};
