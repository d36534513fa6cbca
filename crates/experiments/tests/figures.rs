//! Frozen figure digests: `repro --scale S --fig all --json DIR` must write exactly the files,
//! and print exactly the stdout, whose FNV-1a digests are checked into
//! `tests/golden/figures-S.json` at the workspace root.
//!
//! `tests/golden/reports.json` pins single runs; these lists pin every figure the binary
//! regenerates, so a deletion or a rewrite of a figure runner proves it moved nothing.  The
//! Smoke list is checked with the workspace tests.  The Reduced list takes seconds in release,
//! so its test is ignored by default and CI runs it in release:
//!
//! ```text
//! cargo test --release -p p2pgrid-experiments --test figures -- --ignored
//! ```
//!
//! Regenerate a list with `P2PGRID_BLESS=1` and say in the change which files moved and why.
//! The `wrote …` lines are left out of the stdout digest, because they name the directory.

use serde::json::{self, Value};
use std::path::Path;
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Runs `repro --scale <scale> --fig all --json` into a fresh directory and returns the digest
/// of every file it wrote, by file name in name order, then that of its stdout.
fn digests(scale: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("figures-{scale}"));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", scale, "--fig", "all", "--json"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(&std::fs::read(path).unwrap()))
        })
        .collect();
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stdout: String = stdout
        .split_inclusive('\n')
        .filter(|line| !line.starts_with("wrote "))
        .collect();
    out.push(("stdout".to_string(), fnv1a(stdout.as_bytes())));
    out
}

fn render(scale: &str, digests: &[(String, String)]) -> String {
    let rows = digests
        .iter()
        .map(|(key, digest)| (key.clone(), Value::from(digest.as_str())))
        .collect();
    let doc = Value::object([
        ("format", Value::from("p2pgrid-golden-figures/v1")),
        (
            "command",
            Value::from(format!("repro --scale {scale} --fig all --json DIR")),
        ),
        ("digests", Value::Object(rows)),
    ]);
    doc.to_string_pretty() + "\n"
}

fn check(scale: &str) {
    let golden = format!(
        "{}/../../tests/golden/figures-{scale}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let actual = digests(scale);
    if std::env::var_os("P2PGRID_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&golden, render(scale, &actual)).unwrap();
        return;
    }
    let text = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!("tests/golden/figures-{scale}.json is missing; bless it with P2PGRID_BLESS=1")
    });
    let doc = json::parse(&text).unwrap();
    let frozen = doc
        .get("digests")
        .and_then(Value::as_object)
        .expect("a `digests` object");
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(name, digest)| {
            !frozen
                .iter()
                .any(|(k, d)| k == name && d.as_str() == Some(digest))
        })
        .map(|(name, _)| name.as_str())
        .collect();
    let gone: Vec<&str> = frozen
        .iter()
        .filter(|(k, _)| !actual.iter().any(|(name, _)| name == k))
        .map(|(k, _)| k.as_str())
        .collect();
    assert!(
        moved.is_empty() && gone.is_empty(),
        "{scale}: {} of {} digests moved: {moved:?}; no longer written: {gone:?}",
        moved.len(),
        actual.len()
    );
    assert_eq!(
        text,
        render(scale, &actual),
        "the file is not in canonical form"
    );
}

#[test]
fn smoke_figures_match_the_frozen_digests() {
    check("smoke");
}

#[test]
#[ignore = "seconds in release; CI runs it with --ignored"]
fn reduced_figures_match_the_frozen_digests() {
    check("reduced");
}
