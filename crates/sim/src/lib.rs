//! # p2pgrid-sim — deterministic simulation substrate
//!
//! The ICPP 2010 paper evaluates its scheduler inside the PeerSim simulator.  PeerSim offers
//! two execution models that the paper mixes freely:
//!
//! * a **cycle-driven** model, in which protocols (gossip, periodic scheduling) are invoked on
//!   every node at a fixed period, and
//! * an **event-driven** model, in which asynchronous events (task completions, data-transfer
//!   completions, node churn) are processed in virtual-time order.
//!
//! This crate is the Rust substitute for that substrate.  It provides
//!
//! * [`SimTime`] / [`SimDuration`] — integer virtual time with millisecond resolution, so that
//!   event ordering is exact and runs are bit-for-bit reproducible;
//! * [`EventQueue`] — a deterministic priority queue of timestamped events with stable FIFO
//!   ordering among simultaneous events;
//! * [`rng`] — seeded, splittable random-number utilities so every component draws from an
//!   independent deterministic stream.
//!
//! The crate is intentionally generic: the event type is a type parameter, so the scheduling
//! core, which drives its own queues, defines its own event vocabulary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod rng;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
