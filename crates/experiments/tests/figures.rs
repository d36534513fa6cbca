//! Frozen artifact digests, checked into `tests/golden/` at the workspace root:
//!
//! - `figures-S.json`: every file `repro --scale S --fig all --json DIR` writes, and its stdout;
//! - `campaigns.json`: the artifact `run_local` renders for `campaigns/smoke.json`, and for the
//!   same spec replaying `workloads/montage.json`;
//! - `replays.json`: the stdout of `repro --scale smoke --workload workloads/montage.json`.
//!
//! `tests/golden/reports.json` pins single runs; these lists pin every figure the binary
//! regenerates, its workload replay and the campaign artifact the server must reproduce, so a
//! deletion or a rewrite of a figure runner proves it moved nothing.  The Smoke, replay and
//! campaign lists are checked with the workspace tests.  The Reduced list takes seconds in release, so its test is ignored by
//! default and CI runs it in release:
//!
//! ```text
//! cargo test --release -p p2pgrid-experiments --test figures -- --ignored
//! ```
//!
//! Regenerate a list with `P2PGRID_BLESS=1` and say in the change which files moved and why.
//! The `wrote …` lines are left out of the stdout digest, because they name the directory.

use p2pgrid_experiments::rununit::{run_local, CampaignSpec};
use p2pgrid_workflow::WorkloadSpec;
use serde::json::{self, Value};
use std::path::Path;
use std::process::Command;
use std::str::FromStr;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn fnv1a(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Runs `repro --scale <scale> --fig <fig> --json` into a fresh directory named `dir` and
/// returns the digest of every file it wrote, by file name in name order, and its stdout
/// without the `wrote …` lines.
fn repro(dir: &str, scale: &str, fig: &str) -> (Vec<(String, String)>, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", scale, "--fig", fig, "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "repro --fig {fig} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    let digests = files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(&std::fs::read(path).unwrap()))
        })
        .collect();
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stdout = stdout
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("wrote "))
        .collect();
    (digests, stdout)
}

/// The digest of every file `repro --scale <scale> --fig all --json` writes, then that of its
/// stdout.
fn digests(scale: &str) -> Vec<(String, String)> {
    let (mut digests, stdout) = repro(&format!("figures-{scale}"), scale, "all");
    digests.push(("stdout".to_string(), fnv1a(stdout.as_bytes())));
    digests
}

fn render(format: &str, command: &str, digests: &[(String, String)]) -> String {
    let rows = digests
        .iter()
        .map(|(key, digest)| (key.clone(), Value::from(digest.as_str())))
        .collect();
    let doc = Value::object([
        ("format", Value::from(format)),
        ("command", Value::from(command)),
        ("digests", Value::Object(rows)),
    ]);
    doc.to_string_pretty() + "\n"
}

/// Compares `actual` with `tests/golden/<name>.json`, or rewrites that file under
/// `P2PGRID_BLESS=1`.
fn check(name: &str, format: &str, command: &str, actual: &[(String, String)]) {
    let golden = format!("{ROOT}/tests/golden/{name}.json");
    if std::env::var_os("P2PGRID_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&golden, render(format, command, actual)).unwrap();
        return;
    }
    let text = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!("tests/golden/{name}.json is missing; bless it with P2PGRID_BLESS=1")
    });
    let doc = json::parse(&text).unwrap();
    let frozen = doc
        .get("digests")
        .and_then(Value::as_object)
        .expect("a `digests` object");
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(key, digest)| {
            !frozen
                .iter()
                .any(|(k, d)| k == key && d.as_str() == Some(digest))
        })
        .map(|(key, _)| key.as_str())
        .collect();
    let gone: Vec<&str> = frozen
        .iter()
        .filter(|(k, _)| !actual.iter().any(|(key, _)| key == k))
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(
        moved.is_empty() && gone.is_empty(),
        "{name}: {} of {} digests moved: {moved:?}; no longer written: {gone:?}",
        moved.len(),
        actual.len()
    );
    assert_eq!(
        text,
        render(format, command, actual),
        "the file is not in canonical form"
    );
}

fn check_figures(scale: &str) {
    check(
        &format!("figures-{scale}"),
        "p2pgrid-golden-figures/v1",
        &format!("repro --scale {scale} --fig all --json DIR"),
        &digests(scale),
    );
}

#[test]
fn smoke_figures_match_the_frozen_digests() {
    check_figures("smoke");
}

#[test]
#[ignore = "seconds in release; CI runs it with --ignored"]
fn reduced_figures_match_the_frozen_digests() {
    check_figures("reduced");
}

/// Each `--fig` value writes files with the digests the Smoke list freezes for them (the
/// `figures.ndjson` stream aside, which holds only that run's figures) and prints, below the
/// header, a verbatim part of the `--fig all` stdout.  In `--fig all` order, the figure runs
/// print exactly that stdout and write exactly its files between them, and `headline` prints
/// only the headline block that closes the `4-6` output.
#[test]
fn single_figure_runs_match_the_full_smoke_run() {
    let golden = std::fs::read_to_string(format!("{ROOT}/tests/golden/figures-smoke.json"));
    let doc = json::parse(&golden.unwrap()).unwrap();
    let frozen = doc.get("digests").and_then(Value::as_object).unwrap();
    let below_header = |fig: &str, stdout: &str| {
        let (header, body) = stdout.split_once("\n\n").unwrap();
        assert!(
            header.starts_with("# p2pgrid reproduction"),
            "--fig {fig}: {header}"
        );
        body.to_string()
    };
    let not_ndjson = |(name, _): &(String, String)| name != "figures.ndjson";
    let (all_files, all) = repro("single-all", "smoke", "all");
    let all = below_header("all", &all);
    let (mut printed, mut written) = (String::new(), Vec::new());
    for fig in [
        "3", "4-6", "fcfs", "7-8", "9-10", "11", "12-14", "15", "headline",
    ] {
        let (files, stdout) = repro(&format!("single-{fig}"), "smoke", fig);
        for (name, digest) in files.into_iter().filter(not_ndjson) {
            let pinned = frozen.iter().find(|(k, _)| *k == name).map(|(_, d)| d);
            assert_eq!(
                pinned.and_then(Value::as_str),
                Some(digest.as_str()),
                "--fig {fig} wrote {name}"
            );
            written.push(name);
        }
        let body = below_header(fig, &stdout);
        assert!(all.contains(&body), "--fig {fig} printed:\n{body}");
        if fig == "headline" {
            assert!(body.starts_with("== headline claims"), "{body}");
            assert!(printed.contains(&format!("\n{body}")), "{body}");
        } else {
            printed.push_str(&body);
        }
    }
    assert_eq!(printed, all);
    written.sort();
    let all_files: Vec<String> = all_files
        .into_iter()
        .filter(not_ndjson)
        .map(|f| f.0)
        .collect();
    assert_eq!(written, all_files);
}

#[test]
fn campaign_artifacts_match_the_frozen_digests() {
    let read = |path: &str| std::fs::read_to_string(format!("{ROOT}/{path}")).unwrap();
    let smoke = CampaignSpec::from_str(&read("campaigns/smoke.json")).unwrap();
    let montage = CampaignSpec {
        workload: Some(WorkloadSpec::from_str(&read("workloads/montage.json")).unwrap()),
        ..smoke.clone()
    };
    let actual: Vec<(String, String)> = [
        ("campaigns/smoke.json", smoke),
        ("campaigns/smoke.json + workloads/montage.json", montage),
    ]
    .into_iter()
    .map(|(key, spec)| (key.to_string(), fnv1a(run_local(&spec).unwrap().as_bytes())))
    .collect();
    check(
        "campaigns",
        "p2pgrid-golden-campaigns/v1",
        "run_local(SPEC)",
        &actual,
    );
}

/// The replay table CI prints for the Montage artifact.  The path is given relative to the
/// workspace root, as CI gives it, because the table's header names it.
#[test]
fn workload_replay_matches_the_frozen_digest() {
    let command = "repro --scale smoke --workload workloads/montage.json";
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(command.split(' ').skip(1))
        .current_dir(ROOT)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{command} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    check(
        "replays",
        "p2pgrid-golden-replays/v1",
        command,
        &[("stdout".to_string(), fnv1a(&output.stdout))],
    );
}

/// A replay that cannot start exits 2 and names its file once, whether the file is missing or
/// not JSON.
#[test]
fn workload_replay_failures_name_the_file_once() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay-failures");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{\"format\": ").unwrap();
    for file in [dir.join("missing.json"), malformed] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "smoke", "--workload"])
            .arg(&file)
            .output()
            .unwrap();
        let path = file.display().to_string();
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert_eq!(output.status.code(), Some(2), "{path}: {stderr}");
        assert_eq!(stderr.matches(&path).count(), 1, "{path}: {stderr}");
    }
}
