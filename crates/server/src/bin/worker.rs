//! `p2pgrid-worker` — a campaign execution worker.
//!
//! ```text
//! p2pgrid-worker --master 127.0.0.1:7700 [--hostname NAME] [--die-after N] [--idle-ms 200]
//! ```
//!
//! Registers with the master, pulls run-units, executes them over worlds derived from one
//! base world per campaign and streams the artifacts back.  A dedicated thread heartbeats on
//! its own connection so long-running units do not look like a dead worker.  `--die-after N`
//! makes the process exit abruptly after executing N units — the fault-injection hook the CI
//! smoke test uses to prove failover.

use p2pgrid_server::tcp::TcpTransport;
use p2pgrid_server::{Step, Worker};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: p2pgrid-worker --master HOST:PORT [--hostname NAME] [--die-after N] [--idle-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut master = None;
    let mut hostname = format!("worker-{}", std::process::id());
    let mut die_after = None;
    let mut idle_ms = 200u64;
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--master" => master = args.next(),
            "--hostname" => hostname = args.next().unwrap_or_else(|| usage()),
            "--die-after" => {
                die_after = args.next().and_then(|v| v.parse().ok());
                if die_after.is_none() {
                    eprintln!("p2pgrid-worker: --die-after needs a number");
                    usage()
                }
            }
            "--idle-ms" => {
                idle_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("p2pgrid-worker: unknown flag {other}");
                usage()
            }
        }
    }
    let Some(master) = master else { usage() };

    let transport = match TcpTransport::connect(&master) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("p2pgrid-worker: cannot reach master {master}: {e}");
            std::process::exit(1);
        }
    };
    let mut worker = Worker::new(transport, hostname.clone());
    if let Some(n) = die_after {
        worker = worker.die_after(n);
    }

    // Heartbeat on a second connection so a long simulation cannot trip the expiry timer.
    // The heartbeat worker never pulls; it only keeps our id warm once we have one.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::clone(&stop);
    let hb_master = master.clone();
    let hb_host = hostname.clone();
    // First step registers and learns the id; share it with the heartbeat thread.
    let shared_id = Arc::new(std::sync::Mutex::new(None));
    let hb_id = Arc::clone(&shared_id);
    let heartbeat = std::thread::spawn(move || {
        let Ok(transport) = TcpTransport::connect(&hb_master) else {
            return;
        };
        let mut transport = transport;
        while !hb_stop.load(Ordering::SeqCst) {
            let id = *hb_id.lock().expect("worker id lock poisoned");
            if let Some(worker) = id {
                let request = p2pgrid_server::Request::Heartbeat { worker };
                use p2pgrid_server::Transport as _;
                if transport.call(&request).is_err() {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(500));
        }
        let _ = hb_host;
    });

    let result = loop {
        match worker.step() {
            Ok(Step::Executed { job, unit }) => {
                eprintln!("p2pgrid-worker[{hostname}]: executed unit {unit} of {job}");
                *shared_id.lock().expect("worker id lock poisoned") = worker.id();
            }
            Ok(Step::Idle) => {
                *shared_id.lock().expect("worker id lock poisoned") = worker.id();
                std::thread::sleep(Duration::from_millis(idle_ms));
            }
            Ok(Step::Stopped) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    match result {
        Ok(()) => eprintln!("p2pgrid-worker[{hostname}]: master shut down, exiting"),
        Err(e) => {
            eprintln!("p2pgrid-worker[{hostname}]: {e}");
            std::process::exit(1);
        }
    }
}
