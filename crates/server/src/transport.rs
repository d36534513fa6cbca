//! Transport abstraction: how a client or worker talks to the master.
//!
//! [`Transport`] is one blocking request/response call.  Two implementations exist:
//!
//! * [`LoopbackTransport`] — fully in-process, backed by a shared [`MasterState`] and a
//!   manually advanced clock.  Every message is still serialized to its wire form and parsed
//!   back, so the loopback path exercises the complete protocol encoding without sockets,
//!   and a [`fail_after`](LoopbackTransport::fail_after) hook lets tests kill a worker
//!   mid-campaign deterministically.
//! * [`TcpTransport`](crate::tcp::TcpTransport) — newline-delimited JSON over a real socket.

use crate::handlers::handle;
use crate::protocol::{Request, Response};
use crate::state::{MasterConfig, MasterState};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a transport call failed.
#[derive(Debug)]
pub enum TransportError {
    /// The connection is gone (includes injected loopback failures).
    Disconnected(String),
    /// The peer sent something that does not decode as a protocol message.
    Protocol(String),
    /// An underlying I/O error.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected(why) => write!(f, "disconnected: {why}"),
            TransportError::Protocol(why) => write!(f, "protocol error: {why}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// One blocking request/response exchange with the master.
pub trait Transport {
    /// Send a request and wait for the response.
    fn call(&mut self, request: &Request) -> Result<Response, TransportError>;
}

/// An in-process master: shared state plus a manual millisecond clock.
///
/// Cloning is cheap and shares the same master, so a test can hand one transport per
/// simulated worker plus one for the client, all against a single state machine.
#[derive(Clone)]
pub struct LoopbackMaster {
    state: Arc<Mutex<MasterState>>,
    clock: Arc<AtomicU64>,
}

impl LoopbackMaster {
    /// A fresh master with the given configuration, clock at zero.
    pub fn new(config: MasterConfig) -> Self {
        LoopbackMaster {
            state: Arc::new(Mutex::new(MasterState::new(config))),
            clock: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current manual time.
    pub fn now_ms(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advance the manual clock and run the worker-expiry sweep, exactly like the TCP
    /// server's periodic tick.
    pub fn advance_ms(&self, delta: u64) {
        let now = self.clock.fetch_add(delta, Ordering::SeqCst) + delta;
        let mut state = self.state.lock().expect("master state poisoned");
        crate::failover::expire_workers(&mut state, now);
    }

    /// A new connection to this master.
    pub fn transport(&self) -> LoopbackTransport {
        LoopbackTransport {
            master: self.clone(),
            remaining_calls: None,
        }
    }

    /// Run a closure against the raw state (for assertions).
    pub fn with_state<R>(&self, f: impl FnOnce(&mut MasterState) -> R) -> R {
        let mut state = self.state.lock().expect("master state poisoned");
        f(&mut state)
    }
}

/// One in-process connection to a [`LoopbackMaster`].
pub struct LoopbackTransport {
    master: LoopbackMaster,
    /// `Some(n)`: the next `n` calls succeed, everything after fails — the fault hook used
    /// to kill a worker mid-campaign.
    remaining_calls: Option<u64>,
}

impl LoopbackTransport {
    /// Let the next `n` calls through, then report the connection dead forever.
    pub fn fail_after(&mut self, n: u64) {
        self.remaining_calls = Some(n);
    }

    /// Kill the connection immediately.
    pub fn kill(&mut self) {
        self.remaining_calls = Some(0);
    }
}

impl Transport for LoopbackTransport {
    fn call(&mut self, request: &Request) -> Result<Response, TransportError> {
        if let Some(remaining) = &mut self.remaining_calls {
            if *remaining == 0 {
                return Err(TransportError::Disconnected("injected failure".into()));
            }
            *remaining -= 1;
        }
        // Round-trip both messages through their wire encodings so the loopback path proves
        // exactly what the TCP path ships.
        let wire = request
            .to_json()
            .to_wire_string()
            .map_err(|e| TransportError::Protocol(e.to_string()))?;
        let parsed =
            serde::json::parse(&wire).map_err(|e| TransportError::Protocol(e.to_string()))?;
        let request =
            Request::from_json(&parsed).map_err(|e| TransportError::Protocol(e.to_string()))?;
        let now = self.master.now_ms();
        let response = {
            let mut state = self.master.state.lock().expect("master state poisoned");
            handle(&mut state, request, now)
        };
        let wire = response
            .to_json()
            .to_wire_string()
            .map_err(|e| TransportError::Protocol(e.to_string()))?;
        let parsed =
            serde::json::parse(&wire).map_err(|e| TransportError::Protocol(e.to_string()))?;
        Response::from_json(&parsed).map_err(|e| TransportError::Protocol(e.to_string()))
    }
}
