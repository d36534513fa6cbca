//! `repro` — regenerate every table and figure of the paper from the command line.
//!
//! ```text
//! repro [--scale smoke|reduced|full] [--seed N]
//!       [--fig all|3|4-6|fcfs|7-8|9-10|11|12-14|15|headline]
//!       [--json [DIR]] [--workload FILE] [--check-workloads DIR]
//! ```
//!
//! The default is `--scale reduced --fig all`, which runs every experiment at a laptop-friendly
//! scale (120 nodes, full 36-hour horizon) and prints the regenerated series in the same layout
//! as the paper's figures.  `--scale full` runs the paper-scale configuration (1 000 nodes) and
//! takes correspondingly longer.  `--json` additionally writes one machine-readable artifact
//! per regenerated figure (`<DIR>/<figure-id>.json`, default directory `repro-json`),
//! serialized through the serde compat shim's JSON backend, plus a streaming
//! `<DIR>/figures.ndjson` with one wire-strict compact line per figure in emission order —
//! the same newline-delimited encoding the campaign server speaks on its sockets.
//!
//! Two workload-artifact modes replace the figure run when given:
//!
//! * `--workload FILE` replays a serialized `p2pgrid-workload/v1` trace (e.g. one of the
//!   checked-in files under `workloads/`) over this scale's base grid with all eight
//!   algorithms and prints the comparison table.
//! * `--check-workloads DIR` validates every `.json` artifact in a directory (parse with
//!   line/column error positions, full DAG validation, round-trip fixpoint) and exits with
//!   status 2 if any fails — the CI guard for the checked-in library.

use p2pgrid_core::worked_example;
use p2pgrid_experiments::ExperimentScale;
use p2pgrid_experiments::{
    ccr, churn, fault_tolerance, fcfs_ablation, load_factor, scalability, static_comparison,
    workload, FigureData,
};
use p2pgrid_workflow::{ExpectedCosts, WorkflowAnalysis, WorkloadSpec};
use std::path::{Path, PathBuf};

/// The accepted `--scale` spellings, shown when an unknown value is passed.
const ACCEPTED_SCALES: &str = "smoke, reduced, full";
/// The accepted `--fig` spellings, shown when an unknown value is passed.
const ACCEPTED_FIGURES: &str =
    "all, 3 (example), 4-6 (static), fcfs (ablation), 7-8 (load), 9-10 (ccr), \
     11 (scalability), 12-14 (churn), 15 (fault), headline";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Figure {
    All,
    WorkedExample,
    StaticComparison,
    FcfsAblation,
    LoadFactor,
    Ccr,
    Scalability,
    Churn,
    FaultTolerance,
    Headline,
}

impl Figure {
    fn parse(s: &str) -> Option<Figure> {
        match s.to_ascii_lowercase().as_str() {
            "all" => Some(Figure::All),
            "3" | "fig3" | "example" => Some(Figure::WorkedExample),
            "4" | "5" | "6" | "4-6" | "static" => Some(Figure::StaticComparison),
            "fcfs" | "ablation" => Some(Figure::FcfsAblation),
            "7" | "8" | "7-8" | "load" => Some(Figure::LoadFactor),
            "9" | "10" | "9-10" | "ccr" => Some(Figure::Ccr),
            "11" | "scale" | "scalability" => Some(Figure::Scalability),
            "12" | "13" | "14" | "12-14" | "churn" => Some(Figure::Churn),
            "15" | "fault" | "faults" | "fault-tolerance" => Some(Figure::FaultTolerance),
            "headline" => Some(Figure::Headline),
            _ => None,
        }
    }
}

struct Args {
    scale: ExperimentScale,
    seed: u64,
    figure: Figure,
    json_dir: Option<PathBuf>,
    workload: Option<PathBuf>,
    check_workloads: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = ExperimentScale::Reduced;
    let mut seed = 20100913u64;
    let mut figure = Figure::All;
    let mut json_dir: Option<PathBuf> = None;
    let mut workload: Option<PathBuf> = None;
    let mut check_workloads: Option<PathBuf> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                let v = argv.get(i).ok_or("--scale needs a value")?;
                scale = ExperimentScale::parse(v)
                    .ok_or(format!("unknown scale '{v}' (accepted: {ACCEPTED_SCALES})"))?;
            }
            "--seed" => {
                i += 1;
                let v = argv.get(i).ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("invalid seed '{v}'"))?;
            }
            "--fig" => {
                i += 1;
                let v = argv.get(i).ok_or("--fig needs a value")?;
                figure = Figure::parse(v).ok_or(format!(
                    "unknown figure '{v}' (accepted: {ACCEPTED_FIGURES})"
                ))?;
            }
            "--json" => {
                // Optional value: `--json out/` names the directory, bare `--json` defaults.
                let dir = match argv.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        i += 1;
                        PathBuf::from(next)
                    }
                    _ => PathBuf::from("repro-json"),
                };
                json_dir = Some(dir);
            }
            "--workload" => {
                i += 1;
                workload = Some(PathBuf::from(argv.get(i).ok_or("--workload needs a file")?));
            }
            "--check-workloads" => {
                i += 1;
                check_workloads = Some(PathBuf::from(
                    argv.get(i).ok_or("--check-workloads needs a directory")?,
                ));
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--scale smoke|reduced|full] [--seed N] [--fig FIG] \
                     [--json [DIR]] [--workload FILE] [--check-workloads DIR]\n  \
                     scales:  {ACCEPTED_SCALES}\n  figures: {ACCEPTED_FIGURES}"
                ))
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    Ok(Args {
        scale,
        seed,
        figure,
        json_dir,
        workload,
        check_workloads,
    })
}

/// Print regenerated figures and, when `--json` is on, write their JSON artifacts.
fn emit(figs: &[FigureData], json_dir: &Option<PathBuf>) {
    for fig in figs {
        println!("{}", fig.render());
        if let Some(dir) = json_dir {
            write_json(fig, dir);
        }
    }
}

fn write_json(fig: &FigureData, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let path = dir.join(format!("{}.json", fig.id));
    let mut doc = fig.to_json().to_string_pretty();
    doc.push('\n');
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    if let Err(e) = append_ndjson(fig, dir) {
        eprintln!(
            "cannot append to {}: {e}",
            dir.join(NDJSON_STREAM).display()
        );
        std::process::exit(2);
    }
    println!("wrote {}", path.display());
}

/// The run's streaming artifact: every figure as one wire-strict compact line, in emission
/// order — the same newline-delimited encoding (and the same `NdjsonWriter`) the campaign
/// server's master/worker protocol uses on its sockets.
const NDJSON_STREAM: &str = "figures.ndjson";

fn append_ndjson(fig: &FigureData, dir: &Path) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(NDJSON_STREAM))?;
    let mut stream = serde::json::NdjsonWriter::new(file);
    stream.write(&fig.to_json())
}

/// Start the run with an empty stream so repeated invocations do not concatenate.
fn truncate_ndjson(dir: &Path) {
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(NDJSON_STREAM), b""))
    {
        eprintln!("cannot reset {}: {e}", dir.join(NDJSON_STREAM).display());
        std::process::exit(2);
    }
}

fn print_worked_example() {
    println!("== Fig. 3 worked example ==");
    let wa = worked_example::workflow_a();
    let wb = worked_example::workflow_b();
    let costs = ExpectedCosts::new(1.0, 1.0);
    let aa = WorkflowAnalysis::new(&wa, costs);
    let ab = WorkflowAnalysis::new(&wb, costs);
    let (a2, a3, b2, b3) = worked_example::schedule_points();
    println!("RPM(A2) = {} (paper: 80)", aa.rpm_secs(a2));
    println!("RPM(A3) = {} (paper: 115)", aa.rpm_secs(a3));
    println!("RPM(B2) = {} (paper: 65)", ab.rpm_secs(b2));
    println!("RPM(B3) = {} (paper: 60)", ab.rpm_secs(b3));
    println!("ms(A) = {}, ms(B) = {}", aa.rpm_secs(a3), ab.rpm_secs(b2));
    println!("DSMF dispatch order: B2, B3, A3, A2 (see tests in p2pgrid-core::worked_example)");
    println!();
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("usage") { 0 } else { 2 });
        }
    };
    let scale = args.scale;
    let seed = args.seed;
    let json_dir = &args.json_dir;
    if let Some(dir) = json_dir {
        truncate_ndjson(dir);
    }

    // Workload-artifact modes replace the figure run.
    if args.workload.is_some() || args.check_workloads.is_some() {
        if let Some(dir) = &args.check_workloads {
            match workload::check_dir(dir) {
                Ok(checks) => {
                    println!("== workload artifacts in {} ==", dir.display());
                    for c in &checks {
                        println!(
                            "{:<20} workload `{}`: {} workflows, {} entries, {} tasks — OK",
                            c.file, c.name, c.workflows, c.entries, c.tasks
                        );
                    }
                }
                Err(report) => {
                    eprintln!("workload artifact validation failed:\n{report}");
                    std::process::exit(2);
                }
            }
        }
        if let Some(file) = &args.workload {
            // The message below names the file, so read it here: `WorkloadSpec::load` would
            // name it once more in its I/O error.
            let replay = std::fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|text| text.parse::<WorkloadSpec>().map_err(|e| e.to_string()))
                .and_then(|spec| Ok((workload::run_spec(&spec, scale, seed)?, spec)));
            match replay {
                Ok((grid, spec)) => {
                    println!("== workload replay ({}) ==", file.display());
                    println!("{}", workload::table(&spec, &grid));
                }
                Err(msg) => {
                    eprintln!("cannot replay {}: {msg}", file.display());
                    std::process::exit(2);
                }
            }
        }
        return;
    }
    println!(
        "# p2pgrid reproduction — scale: {scale:?}, seed: {seed}, nodes: {}\n",
        scale.nodes()
    );

    let run_all = args.figure == Figure::All;
    if run_all || args.figure == Figure::WorkedExample {
        print_worked_example();
    }
    if run_all || args.figure == Figure::StaticComparison || args.figure == Figure::Headline {
        let grid = static_comparison::run(scale, seed);
        if args.figure != Figure::Headline {
            emit(&static_comparison::figures(&grid), json_dir);
            println!("== converged summary (static environment) ==");
            println!("{}", static_comparison::summary_table(&grid));
        }
        let h = static_comparison::headline(&grid);
        println!("== headline claims (DSMF vs other decentralized algorithms) ==");
        println!(
            "ACT reduction:   {:.1}% .. {:.1}%   (paper: 20% .. 60%)",
            h.act_reduction_pct.0, h.act_reduction_pct.1
        );
        println!(
            "AE improvement:  {:.1}% .. {:.1}%   (paper: 37.5% .. 90%)",
            h.ae_improvement_pct.0, h.ae_improvement_pct.1
        );
        println!();
    }
    if run_all || args.figure == Figure::FcfsAblation {
        let grid = fcfs_ablation::run(scale, seed);
        println!("== second-phase vs FCFS ablation (§IV.B) ==");
        println!("{}", fcfs_ablation::table(&grid));
        println!(
            "paper second phase beats or matches FCFS for {}/{} algorithms\n",
            fcfs_ablation::second_phase_wins(&grid),
            grid.xs.len()
        );
        // The figure duplicates the table on stdout, so only its JSON artifact is written —
        // stdout stays identical with and without --json.
        if let Some(dir) = json_dir {
            for fig in fcfs_ablation::figures(&grid) {
                write_json(&fig, dir);
            }
        }
    }
    if run_all || args.figure == Figure::LoadFactor {
        emit(
            &load_factor::figures(&load_factor::run(scale, seed)),
            json_dir,
        );
    }
    if run_all || args.figure == Figure::Ccr {
        let grid = ccr::run(scale, seed);
        println!("== CCR cases ==");
        for (i, case) in ccr::paper_cases().iter().enumerate() {
            println!("case {i}: {}", case.label);
        }
        emit(&ccr::figures(&grid), json_dir);
    }
    if run_all || args.figure == Figure::Scalability {
        emit(
            &scalability::figures(&scalability::run(scale, seed)),
            json_dir,
        );
    }
    if run_all || args.figure == Figure::Churn {
        let grid = churn::run(scale, seed);
        emit(&churn::figures(&grid), json_dir);
        println!("== churn summary ==");
        for (df, r) in grid.xs.iter().zip(&grid.reports[0]) {
            println!(
                "df={df:.1}: finished {}, failed {}, ACT {:.0}s, AE {:.3}",
                r.completed,
                r.failed,
                r.act_secs(),
                r.average_efficiency()
            );
        }
    }
    if run_all || args.figure == Figure::FaultTolerance {
        let grid = fault_tolerance::run(scale, seed);
        emit(&fault_tolerance::figures(&grid), json_dir);
        println!("== fault-tolerance summary (MTBF x recovery policy) ==");
        println!("{}", fault_tolerance::summary_table(&grid));
    }
}
