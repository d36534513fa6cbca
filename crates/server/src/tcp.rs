//! Newline-delimited JSON over TCP, using only the standard library.
//!
//! Wire format: one compact JSON object per line in each direction — the same
//! `NdjsonWriter`/`read_ndjson_line` pair the `repro --json` stream uses, and wire-strict
//! (non-finite numbers are rejected at the serializer, never silently nulled on the socket).
//!
//! [`serve`] runs the master accept loop; [`TcpTransport`] is the client side.  A dropped
//! worker connection declares that worker dead immediately (faster than the heartbeat
//! timeout); a silent-but-connected worker is caught by the periodic expiry tick.
//!
//! Both ends read at most [`MAX_LINE_BYTES`] of one line.  The master answers a line that
//! is not a JSON request with an `error` response and keeps serving the connection; it
//! closes the connection only on a line over the cap, since the rest of that line cannot be
//! told from the next message.

use crate::failover::{declare_dead, expire_workers};
use crate::handlers::handle;
use crate::protocol::{Request, Response, WorkerId};
use crate::state::{MasterConfig, MasterState};
use crate::transport::{Transport, TransportError};
use serde::json::{read_ndjson_line, NdjsonWriter};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the server sweeps for expired workers.
const EXPIRY_TICK: Duration = Duration::from_millis(50);

/// The longest line either end accepts, its newline excluded: 16 MiB.  The largest message
/// the repo's own campaigns send is a `fetch` response, ~1.5 kB per Smoke run-unit on the
/// wire: ~160 kB for a 104-unit campaign whose rendered artifact is 575 kB.  A unit over a
/// 36-hour horizon takes ~3.0 kB, so the master accepts jobs of at most 5 000 units, whose
/// response fits; and one peer that never sends a newline holds at most 16 MiB of master
/// memory.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// A client connection speaking newline-delimited JSON to a master.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: NdjsonWriter<TcpStream>,
}

impl TcpTransport {
    /// Connect to a master.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpTransport {
            reader,
            writer: NdjsonWriter::new(stream),
        })
    }
}

impl Transport for TcpTransport {
    fn call(&mut self, request: &Request) -> Result<Response, TransportError> {
        self.writer.write(&request.to_json())?;
        match read_ndjson_line(&mut self.reader, MAX_LINE_BYTES)? {
            Some(Ok(value)) => {
                Response::from_json(&value).map_err(|e| TransportError::Protocol(e.to_string()))
            }
            Some(Err(e)) => Err(TransportError::Protocol(e.to_string())),
            None => Err(TransportError::Disconnected(
                "master closed the connection".into(),
            )),
        }
    }
}

/// Shared server context: the state machine plus the epoch all `now_ms` values count from.
struct Server {
    state: Mutex<MasterState>,
    start: Instant,
    shutdown: AtomicBool,
}

impl Server {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// Run a master on an already-bound listener until a `shutdown` request arrives.
///
/// One thread per connection plus a periodic expiry tick; all of them funnel into the same
/// [`handle`] dispatcher the loopback transport uses.
pub fn serve(listener: TcpListener, config: MasterConfig) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let server = Arc::new(Server {
        state: Mutex::new(MasterState::new(config)),
        start: Instant::now(),
        shutdown: AtomicBool::new(false),
    });
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                // Peers come and go for the master's whole life: keep live connections only.
                handles.retain(|h| !h.is_finished());
                handles.push(std::thread::spawn(move || {
                    let _ = handle_connection(&server, stream);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let now = server.now_ms();
                {
                    let mut state = server.state.lock().expect("master state poisoned");
                    expire_workers(&mut state, now);
                }
                std::thread::sleep(EXPIRY_TICK);
            }
            Err(e) => return Err(e),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Serve one connection until it ends — at EOF, on an over-long line or on an I/O error.
/// If the connection carried a worker identity, its end declares the worker dead and
/// requeues its units.
fn handle_connection(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    let mut owner = None;
    let served = serve_requests(server, stream, &mut owner);
    if let Some(worker) = owner {
        let now = server.now_ms();
        let mut state = server.state.lock().expect("master state poisoned");
        declare_dead(&mut state, worker, now);
    }
    served
}

/// Read a request line, dispatch, write the response line, repeat; `owner` learns which
/// worker the connection belongs to.
fn serve_requests(
    server: &Server,
    stream: TcpStream,
    owner: &mut Option<WorkerId>,
) -> std::io::Result<()> {
    let local_addr = stream.local_addr()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = NdjsonWriter::new(stream);
    while let Some(line) = read_ndjson_line(&mut reader, MAX_LINE_BYTES)? {
        let parsed = match line {
            Ok(value) => Request::from_json(&value).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                writer.write(
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    }
                    .to_json(),
                )?;
                continue;
            }
        };
        // Remember which worker this connection belongs to, so a dropped socket can
        // fail over faster than the heartbeat timeout.
        if let Request::Pull { worker }
        | Request::Heartbeat { worker }
        | Request::Complete { worker, .. }
        | Request::FailUnit { worker, .. } = &request
        {
            *owner = Some(*worker);
        }
        // Once shutdown is under way every peer gets told so, which is what lets worker
        // loops drain and `serve` join its connection threads.
        if server.shutdown.load(Ordering::SeqCst) {
            writer.write(&Response::ShuttingDown.to_json())?;
            break;
        }
        let shutting_down = matches!(request, Request::Shutdown);
        let now = server.now_ms();
        let response = {
            let mut state = server.state.lock().expect("master state poisoned");
            let response = handle(&mut state, request, now);
            if let Response::Registered { worker, .. } = &response {
                *owner = Some(*worker);
            }
            response
        };
        writer.write(&response.to_json())?;
        if shutting_down {
            server.shutdown.store(true, Ordering::SeqCst);
            // Poke the accept loop out of its sleep by connecting once.
            let _ = TcpStream::connect(local_addr);
            break;
        }
    }
    Ok(())
}
