//! Every decoder of outside input, fuzzed: wire messages, campaign specs and workload
//! documents.
//!
//! Inputs are random bytes and random byte edits (flip, insert, delete, splice) of valid
//! documents: one line of every wire message, `campaigns/smoke.json`,
//! `workloads/montage.json`, and a `complete` line whose artifact nests as deep as the line
//! can carry.  Each input that parses goes through every decoder, a decoded workload through
//! `resolve`, and a decoded request through the master's dispatcher, followed by a `fetch`.
//! None of it may panic.  A second property pins the spec codec: every spec that validates
//! comes back unchanged from its wire line.

use p2pgrid::experiments::rununit::{RunUnit, UNIT_FORMAT};
use p2pgrid::prelude::*;
use p2pgrid::server::handlers::handle;
use p2pgrid::server::protocol::JobStatus;
use p2pgrid::server::{JobId, MasterConfig, MasterState, Request, Response, WorkerId};
use p2pgrid::workflow::spec::{EdgeSpec, TaskSpec};
use proptest::prelude::*;
use serde::json::{self, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Deterministic splitmix64 stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn task(name: &str, priority: Option<i32>) -> TaskSpec {
    TaskSpec {
        name: name.into(),
        load_mi: 100.0,
        image_size_mb: 2.5,
        priority,
    }
}

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        name: "fuzz".into(),
        scale: ExperimentScale::Smoke,
        seeds: vec![5],
        algorithms: vec![Algorithm::Dsmf],
        workload: Some(WorkloadSpec {
            name: "w".into(),
            workflows: vec![WorkflowSpec {
                name: "d".into(),
                tasks: vec![task("a", Some(-3)), task("b", None)],
                edges: vec![EdgeSpec {
                    from: "a".into(),
                    to: "b".into(),
                    data_mb: 12.5,
                }],
            }],
            entries: vec![WorkloadEntry {
                workflow: "d".into(),
                submit_at_ms: 1_500,
                home: HomePolicy::Node(2),
            }],
        }),
    }
}

/// The valid documents the mutations start from.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let artifact = |unit: u64, x: Value| {
            Value::object([
                ("format", Value::from(UNIT_FORMAT)),
                ("unit", Value::from(unit)),
                ("x", x),
            ])
        };
        let (worker, job) = (WorkerId(0), JobId(0));
        let status = JobStatus {
            job,
            state: "failed".into(),
            reason: Some("retry budget exhausted".into()),
            total: 1,
            done: 0,
            in_flight: 1,
            pending: 0,
            workers_alive: 1,
        };
        let requests = [
            Request::Register {
                hostname: "h\"x".into(),
            },
            Request::Heartbeat { worker },
            Request::Pull { worker },
            Request::Complete {
                worker,
                job,
                unit: 0,
                artifact: artifact(0, Value::array([1.5, 2.0])),
            },
            // As deep as a `complete` line can carry: the line nests 128 levels.
            Request::Complete {
                worker,
                job,
                unit: 0,
                artifact: artifact(
                    0,
                    json::parse(&("[".repeat(127) + &"]".repeat(127))).unwrap(),
                ),
            },
            Request::FailUnit {
                worker,
                job,
                unit: 0,
                reason: "boom".into(),
            },
            Request::Submit { spec: small_spec() },
            Request::Status { job },
            Request::Fetch { job },
            Request::Shutdown,
        ];
        let responses = [
            Response::Registered {
                worker,
                heartbeat_ms: 5000,
            },
            Response::Ok,
            Response::Assignment {
                job,
                unit: RunUnit {
                    index: 0,
                    seed: 5,
                    algorithm: Algorithm::MinMin,
                },
                spec: small_spec(),
            },
            Response::Idle,
            Response::Unregistered,
            Response::Accepted { job, units: 1 },
            Response::Status(JobStatus {
                reason: None,
                ..status.clone()
            }),
            Response::Status(status),
            Response::Artifact {
                job,
                body: artifact(0, Value::Null),
            },
            Response::ShuttingDown,
            Response::Error {
                message: "nope".into(),
            },
        ];
        let root = env!("CARGO_MANIFEST_DIR");
        requests
            .iter()
            .map(Request::to_json)
            .chain(responses.iter().map(Response::to_json))
            .map(|v| v.to_wire_string().unwrap())
            .chain(
                ["campaigns/smoke.json", "workloads/montage.json"]
                    .map(|path| std::fs::read_to_string(format!("{root}/{path}")).unwrap()),
            )
            .collect()
    })
}

/// One to four random edits of `doc`, splicing from `other`.
fn mutate(rng: &mut Mix, doc: &[u8], other: &[u8]) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.insert(at, *rng.pick(b"{}[]\",:0-9.e \\nultrfa\xff")),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {
                let from = rng.below(other.len());
                let len = rng.below(other.len() - from + 1).min(64);
                bytes.splice(at..at, other[from..from + len].iter().copied());
            }
        }
    }
    bytes
}

/// A master holding one 1-unit job whose unit is pulled by worker 0.
fn pulled_master() -> MasterState {
    let mut state = MasterState::new(MasterConfig::default());
    let spec = CampaignSpec {
        workload: None,
        ..small_spec()
    };
    let accepted = handle(&mut state, Request::Submit { spec }, 0);
    assert!(matches!(accepted, Response::Accepted { units: 1, .. }));
    let worker = state.register("fuzz", 0);
    let pulled = handle(&mut state, Request::Pull { worker }, 0);
    assert!(matches!(pulled, Response::Assignment { .. }));
    state
}

/// Every decoder, then the dispatcher for a decoded request.
fn exercise(input: &[u8]) {
    let Ok(value) = json::parse(&String::from_utf8_lossy(input)) else {
        return;
    };
    let _ = Response::from_json(&value);
    let _ = CampaignSpec::from_json(&value);
    if let Ok(workload) = WorkloadSpec::from_json(&value) {
        let _ = workload.resolve();
    }
    if let Ok(request) = Request::from_json(&value) {
        let mut state = pulled_master();
        handle(&mut state, request, 1);
        handle(&mut state, Request::Fetch { job: JobId(0) }, 2);
        state.assert_invariants();
    }
}

proptest! {
    /// The first cases replay every corpus document as it is; the rest edit one, or draw
    /// random bytes.
    #[test]
    fn no_decoder_or_handler_panics_on_random_or_mutated_input(seed in 0u64..u64::MAX) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let corpus = corpus();
        let mut rng = Mix(seed);
        let input = match corpus.get(CASE.fetch_add(1, Ordering::Relaxed)) {
            Some(doc) => doc.clone().into_bytes(),
            None if rng.below(8) == 0 => (0..rng.below(64)).map(|_| rng.next() as u8).collect(),
            None => {
                let doc = rng.pick(corpus).as_bytes();
                let other = rng.pick(corpus).as_bytes();
                mutate(&mut rng, doc, other)
            }
        };
        exercise(&input);
    }

    /// A spec that validates survives its own wire line: seeds on both sides of 2^53, any
    /// name, and workloads with arbitrary sizes, priorities, entry times and homes.
    #[test]
    fn every_spec_that_validates_round_trips_through_its_wire_line(seed in 0u64..u64::MAX) {
        let mut rng = Mix(seed);
        let int = |rng: &mut Mix| match rng.below(5) {
            0..=2 => rng.next() % 100,
            3 => (1 << 53) - 2 + rng.next() % 4,
            _ => rng.next(),
        };
        let name: String = (0..rng.below(6))
            .map(|_| *rng.pick(&['a', 'Z', '"', '\\', '\n', '\u{1}', 'é', '\u{1F600}']))
            .collect();
        let mut algorithms = Algorithm::ALL.to_vec();
        let mut algorithms: Vec<Algorithm> = (0..1 + rng.below(3))
            .map(|_| algorithms.remove(rng.below(algorithms.len())))
            .collect();
        if rng.below(4) == 0 {
            algorithms.push(algorithms[0]);
        }
        let size = |rng: &mut Mix| match rng.below(16) {
            0 => f64::from_bits(rng.next()),
            1 => f64::INFINITY,
            _ => (rng.next() % 10_000) as f64 / 8.0,
        };
        let tasks: Vec<TaskSpec> = (0..1 + rng.below(3))
            .map(|i| TaskSpec {
                name: format!("t{i}"),
                load_mi: size(&mut rng),
                image_size_mb: size(&mut rng),
                priority: (rng.below(2) == 0).then(|| rng.next() as i32),
            })
            .collect();
        let edges = (1..tasks.len())
            .map(|i| EdgeSpec {
                from: format!("t{}", i - 1),
                to: format!("t{i}"),
                data_mb: size(&mut rng),
            })
            .collect();
        let entries = (0..1 + rng.below(3))
            .map(|_| WorkloadEntry {
                workflow: "w".into(),
                submit_at_ms: int(&mut rng),
                home: if rng.below(2) == 0 {
                    HomePolicy::Auto
                } else {
                    HomePolicy::Node(int(&mut rng) as usize)
                },
            })
            .collect();
        let spec = CampaignSpec {
            name,
            scale: *rng.pick(&[
                ExperimentScale::Smoke,
                ExperimentScale::Reduced,
                ExperimentScale::Full,
            ]),
            seeds: (0..1 + rng.below(3)).map(|_| int(&mut rng)).collect(),
            algorithms,
            workload: (rng.below(2) == 0).then(|| WorkloadSpec {
                name: "load".into(),
                workflows: vec![WorkflowSpec {
                    name: "w".into(),
                    tasks,
                    edges,
                }],
                entries,
            }),
        };
        if spec.validate().is_ok() {
            let line = spec.to_json().to_wire_string().unwrap();
            let back = CampaignSpec::from_json(&json::parse(&line).unwrap());
            prop_assert_eq!(back, Ok(spec));
        }
    }
}
