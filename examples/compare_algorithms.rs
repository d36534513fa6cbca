//! Compare the eight schedulers of the paper on the same workload (a miniature Fig. 4–6).
//!
//! Run with `cargo run --release --example compare_algorithms [nodes]`.

use p2pgrid::experiments::static_comparison;
use p2pgrid::experiments::ExperimentScale;
use p2pgrid::prelude::*;

fn main() {
    // The reduced scale runs the full 36-hour horizon on ~120 nodes; pass a node count to run a
    // custom size instead.
    let custom_nodes: Option<usize> = std::env::args().nth(1).and_then(|s| s.parse().ok());
    let (scale, label) = (ExperimentScale::Reduced, "reduced (120 nodes)");

    let grid = match custom_nodes {
        None => {
            println!("Running the 8-algorithm comparison at {label} scale...");
            static_comparison::run(scale, 20100913)
        }
        Some(n) => {
            println!("Running the 8-algorithm comparison on a custom {n}-node grid...");
            // The world is built once and shared by all eight (parallel) sessions.
            let cfg = GridConfig::paper_default()
                .with_nodes(n)
                .with_seed(20100913);
            let scenario = Scenario::build(cfg).expect("custom grid config is valid");
            static_comparison::run_on(&scenario)
        }
    };

    println!();
    println!("{}", static_comparison::summary_table(&grid));

    let headline = static_comparison::headline(&grid);
    println!(
        "DSMF vs other decentralized algorithms: ACT reduced by {:.1}%..{:.1}% (paper: 20..60%),",
        headline.act_reduction_pct.0, headline.act_reduction_pct.1
    );
    println!(
        "AE improved by {:.1}%..{:.1}% (paper: 37.5..90%).",
        headline.ae_improvement_pct.0, headline.ae_improvement_pct.1
    );

    println!();
    println!("throughput over time (workflows finished):");
    let [throughput, ..] = static_comparison::figures(&grid);
    println!("{}", throughput.render());
}
