//! End-to-end over real sockets: a master on an ephemeral port, two workers (one rigged to
//! die mid-campaign), a submitting client — and the fetched artifact byte-identical to a
//! local run.  Also: a malformed line is answered, an over-long one hangs up only its own
//! connection, and an artifact the master could not merge or send back is refused.

use p2pgrid_core::Algorithm;
use p2pgrid_experiments::rununit::{render_result, run_local, UNIT_FORMAT};
use p2pgrid_experiments::{CampaignSpec, ExperimentScale, UnitRunner};
use p2pgrid_server::tcp::{serve, TcpTransport, MAX_LINE_BYTES};
use p2pgrid_server::{Client, MasterConfig, Request, Response, Step, Transport, Worker};
use serde::json::{self, read_ndjson_line, Value};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        name: "tcp-e2e".to_string(),
        scale: ExperimentScale::Smoke,
        seeds: vec![21, 22],
        algorithms: vec![Algorithm::Dsmf, Algorithm::Heft],
        workload: None,
    }
}

fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
    die_after: Option<usize>,
) -> std::thread::JoinHandle<()> {
    let name = name.to_string();
    std::thread::spawn(move || {
        let transport = TcpTransport::connect(addr).expect("worker connects");
        let mut worker = Worker::new(transport, name);
        if let Some(n) = die_after {
            worker = worker.die_after(n);
        }
        loop {
            match worker.step() {
                Ok(Step::Executed { .. }) => {}
                Ok(Step::Idle) => std::thread::sleep(Duration::from_millis(20)),
                Ok(Step::Stopped) => break,
                // Simulated crash: drop the connection without a word, like a real dead
                // process would.
                Err(_) => break,
            }
        }
    })
}

#[test]
fn tcp_master_two_workers_one_killed_yields_local_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let config = MasterConfig {
        // A dropped connection fails over instantly; the short timeout only covers the
        // silent-stall path and keeps the test fast if that path is ever hit.
        heartbeat_timeout_ms: 1_500,
        retry_budget: 3,
        backoff_ms: 50,
    };
    let server = std::thread::spawn(move || serve(listener, config).expect("serve"));

    let spec = smoke_spec();
    let mut client = Client::new(TcpTransport::connect(addr).expect("client connects"));
    let (job, units) = client.submit(&spec).expect("submit");
    assert_eq!(units, 4);

    // One healthy worker and one that dies right after its first completed unit, while
    // holding a second assignment.
    let healthy = spawn_worker(addr, "healthy", None);
    let doomed = spawn_worker(addr, "doomed", Some(1));

    let status = client
        .wait(job, |_| std::thread::sleep(Duration::from_millis(50)))
        .expect("campaign completes despite the killed worker");
    assert_eq!(status.done, 4);
    let body = client.fetch(job).expect("fetch");
    assert_eq!(
        render_result(&body),
        run_local(&spec).expect("local run"),
        "distributed artifact must be byte-identical to the local run"
    );

    client.shutdown().expect("shutdown");
    doomed.join().expect("doomed worker thread");
    healthy.join().expect("healthy worker thread");
    server.join().expect("server thread");
}

/// A master with the default config on an ephemeral port.
fn start_master() -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || serve(listener, MasterConfig::default()).unwrap());
    (addr, server)
}

fn registers(transport: &mut TcpTransport) -> bool {
    let register = Request::Register {
        hostname: "probe".into(),
    };
    matches!(transport.call(&register), Ok(Response::Registered { .. }))
}

/// Shut the master down; every other connection must already be closed, or `serve` waits
/// for it.
fn stop_master(addr: SocketAddr, server: JoinHandle<()>) {
    let mut client = Client::new(TcpTransport::connect(addr).expect("client connects"));
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn a_malformed_line_is_answered_and_the_connection_keeps_serving() {
    let (addr, server) = start_master();
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(b"not json\n\"\xff\"\n{\"type\":\"nonsense\"}\n")
        .expect("send bad lines");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    for bad in ["not JSON", "not UTF-8", "not a request"] {
        let reply = read_ndjson_line(&mut reader, MAX_LINE_BYTES)
            .expect("the master answers")
            .expect("and keeps the connection open")
            .expect("with JSON");
        match Response::from_json(&reply) {
            Ok(Response::Error { message }) => {
                assert!(message.starts_with("bad request"), "{bad}: {message}")
            }
            other => panic!("{bad}: expected an error response, got {other:?}"),
        }
    }
    drop(reader);
    let mut same = TcpTransport::from_stream(raw).expect("wrap");
    assert!(registers(&mut same), "the same connection stopped serving");
    let mut other = TcpTransport::connect(addr).expect("connect");
    assert!(registers(&mut other), "another connection is not served");
    drop((same, other));
    stop_master(addr, server);
}

#[test]
fn an_over_long_line_closes_only_its_own_connection() {
    let (addr, server) = start_master();
    let mut bystander = TcpTransport::connect(addr).expect("connect");
    let mut flood = TcpStream::connect(addr).expect("connect");
    flood
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // One byte over the cap and no newline: the master must stop reading and hang up.  The
    // write may fail once it does.
    let _ = flood.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]);
    match flood.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Ok(_) => panic!("the master answered an over-long line instead of hanging up"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the master kept the flooding connection open"
        ),
    }
    assert!(
        registers(&mut bystander),
        "an open connection is not served"
    );
    let mut fresh = TcpTransport::connect(addr).expect("connect");
    assert!(registers(&mut fresh), "a new connection is not served");
    drop((flood, bystander, fresh));
    stop_master(addr, server);
}

#[test]
fn an_artifact_that_could_not_be_merged_or_fetched_is_refused_and_the_master_keeps_serving() {
    let (addr, server) = start_master();
    let spec = CampaignSpec {
        name: "deep".to_string(),
        scale: ExperimentScale::Smoke,
        seeds: vec![23],
        algorithms: vec![Algorithm::Dsmf],
        workload: None,
    };
    let mut client = Client::new(TcpTransport::connect(addr).expect("client connects"));
    let (job, _) = client.submit(&spec).expect("submit");
    let mut peer = TcpTransport::connect(addr).expect("peer connects");
    let register = Request::Register {
        hostname: "peer".into(),
    };
    let Ok(Response::Registered { worker, .. }) = peer.call(&register) else {
        panic!("the peer did not register");
    };
    let pulled = peer.call(&Request::Pull { worker });
    assert!(
        matches!(pulled, Ok(Response::Assignment { .. })),
        "{pulled:?}"
    );

    // As deep as a `complete` line can carry it (the line nests 128 levels), which is two
    // levels too deep for the merged document and three for the `fetch` line; then an
    // artifact claiming another unit's index.
    let unit_doc = |unit: u64, extra: Option<Value>| {
        let mut fields = vec![
            ("format", Value::from(UNIT_FORMAT)),
            ("unit", Value::from(unit)),
        ];
        fields.extend(extra.map(|x| ("x", x)));
        Value::object(fields)
    };
    let nested = json::parse(&("[".repeat(127) + &"]".repeat(127))).expect("nested arrays");
    for artifact in [unit_doc(0, Some(nested)), unit_doc(5, None)] {
        let complete = Request::Complete {
            worker,
            job,
            unit: 0,
            artifact,
        };
        let reply = peer.call(&complete);
        assert!(matches!(reply, Ok(Response::Error { .. })), "{reply:?}");
        let status = client.status(job).expect("the master answers status");
        assert_eq!((status.state.as_str(), status.done), ("running", 0));
        let fetched = peer.call(&Request::Fetch { job });
        assert!(
            matches!(&fetched, Ok(Response::Error { message }) if message.contains("running")),
            "{fetched:?}"
        );
    }

    // The honest completion still lands, and the job merges and fetches as a local run.
    let artifact = UnitRunner::new(spec.clone())
        .and_then(|mut runner| runner.run(&spec.units()[0]))
        .expect("the unit runs");
    let complete = Request::Complete {
        worker,
        job,
        unit: 0,
        artifact,
    };
    assert!(matches!(peer.call(&complete), Ok(Response::Ok)));
    let body = client.fetch(job).expect("fetch");
    assert_eq!(render_result(&body), run_local(&spec).expect("local run"));
    drop((peer, client));
    stop_master(addr, server);
}
