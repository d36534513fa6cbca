//! Frozen report digests: every scheduler on Smoke-sized worlds, under every fault, substrate
//! and workload family, must reproduce the [`SimulationReport::digest`] checked into
//! `tests/golden/reports.json`.
//!
//! The determinism suites compare runs against each other; these digests are frozen
//! instead.  A performance rewrite or a deletion proves it changed no behaviour by
//! leaving the file byte-for-byte unchanged, and an intentional behaviour change shows exactly
//! which rows moved.  Regenerate the file with
//!
//! ```text
//! P2PGRID_BLESS=1 cargo test --test golden
//! ```
//!
//! and say in the change why the digests moved.  The CI matrix over `P2PGRID_POOL_THREADS`
//! checks the same file at every pool width.

use p2pgrid::prelude::*;
use serde::json::{self, Value};
use std::path::Path;
use std::str::FromStr;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.json");
const MONTAGE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/montage.json");
const SEED: u64 = 1212;

/// One configuration family and the schedulers run on it.
struct Row {
    name: &'static str,
    config: GridConfig,
    algorithms: Vec<Algorithm>,
}

fn smoke() -> GridConfig {
    ExperimentScale::Smoke.base_config(SEED)
}

fn stochastic(recovery: RecoveryPolicy) -> GridConfig {
    let faults = StochasticFaults::new(SimDuration::from_hours(2), SimDuration::from_mins(20));
    smoke()
        .with_faults(FaultModel::Stochastic(faults))
        .with_recovery(recovery)
}

/// The rows.  Static, churn and the two trace rows run every scheduler; to keep the test fast
/// in a debug build, each fault row runs two of them, so the four recovery policies together
/// still cover all eight, and the heterogeneous row runs one of each planner kind (greedy
/// just-in-time, full-ahead, matrix).
fn rows() -> Vec<Row> {
    use Algorithm::*;
    let montage = WorkloadSpec::from_str(&std::fs::read_to_string(MONTAGE).unwrap()).unwrap();
    let het_preemptive = ResourceModel::heterogeneous(vec![
        SlotClass {
            slots: 1,
            weight: 0.8,
        },
        SlotClass {
            slots: 4,
            weight: 0.2,
        },
    ])
    .preemptive();
    vec![
        Row {
            name: "static",
            config: smoke(),
            algorithms: Algorithm::ALL.to_vec(),
        },
        Row {
            name: "churn-df0.4",
            config: smoke().with_churn(ChurnConfig::with_dynamic_factor(0.4)),
            algorithms: Algorithm::ALL.to_vec(),
        },
        Row {
            name: "faults-fail-workflow",
            config: stochastic(RecoveryPolicy::FailWorkflow),
            algorithms: vec![Dsmf, MinMin],
        },
        Row {
            name: "faults-retry",
            config: stochastic(RecoveryPolicy::Retry {
                budget: 3,
                backoff: SimDuration::from_mins(5),
            }),
            algorithms: vec![MaxMin, Heft],
        },
        Row {
            name: "faults-checkpoint",
            config: stochastic(RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_mins(10),
            }),
            algorithms: vec![Sufferage, Dheft],
        },
        Row {
            name: "faults-replicate",
            config: stochastic(RecoveryPolicy::Replicate { copies: 2 }),
            algorithms: vec![Dsdf, Smf],
        },
        Row {
            name: "het-preemptive",
            config: smoke().with_resource(het_preemptive),
            algorithms: vec![Dsmf, Heft, MinMin, Sufferage],
        },
        Row {
            name: "montage-poisson",
            config: smoke()
                .with_workload(montage.clone())
                .with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 2.0 }),
            algorithms: Algorithm::ALL.to_vec(),
        },
        // Deferred arrivals and pre-drawn failures and repairs in one session, so their
        // order at an equal instant is pinned for every scheduler.
        Row {
            name: "montage-faults-retry",
            config: stochastic(RecoveryPolicy::Retry {
                budget: 3,
                backoff: SimDuration::from_mins(5),
            })
            .with_workload(montage)
            .with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 2.0 }),
            algorithms: Algorithm::ALL.to_vec(),
        },
    ]
}

/// `row/algorithm` → digest as 16 hex digits, in row order.
fn digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for row in rows() {
        let scenario = Scenario::build(row.config).unwrap();
        for algorithm in row.algorithms {
            let report = scenario.simulate_algorithm(algorithm).run();
            out.push((
                format!("{}/{}", row.name, algorithm.name()),
                format!("{:016x}", report.digest()),
            ));
        }
    }
    out
}

fn render(digests: &[(String, String)]) -> String {
    let rows = digests
        .iter()
        .map(|(key, digest)| (key.clone(), Value::from(digest.as_str())))
        .collect();
    let doc = Value::object([
        ("format", Value::from("p2pgrid-golden-reports/v1")),
        ("seed", Value::from(SEED)),
        ("digests", Value::Object(rows)),
    ]);
    doc.to_string_pretty() + "\n"
}

#[test]
fn reports_match_the_frozen_digests() {
    let actual = digests();
    if std::env::var_os("P2PGRID_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, render(&actual)).unwrap();
        return;
    }
    let text = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/reports.json is missing; bless it with P2PGRID_BLESS=1");
    let doc = json::parse(&text).unwrap();
    let frozen: Vec<(String, String)> = doc
        .get("digests")
        .and_then(Value::as_object)
        .expect("a `digests` object")
        .iter()
        .map(|(key, digest)| (key.clone(), digest.as_str().unwrap().to_string()))
        .collect();
    let moved: Vec<String> = actual
        .iter()
        .filter(|(key, digest)| !frozen.iter().any(|(k, d)| k == key && d == digest))
        .map(|(key, _)| key.clone())
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} digests moved: {moved:?}",
        moved.len(),
        actual.len()
    );
    assert_eq!(
        frozen.len(),
        actual.len(),
        "the frozen file has rows this test no longer runs"
    );
    assert_eq!(text, render(&actual), "the file is not in canonical form");
}
