//! Regenerates the content of **Figure 2**: "The Components of the
//! Data Mining Toolbox" — the workflow engine surrounded by the data
//! management library, visualisation tools, the WEKA-derived algorithm
//! pool, and the deployed third-party services.
//!
//! Run with `cargo run --example figure2_components`.

#![forbid(unsafe_code)]

use dm_workflow::planner::Planner;
use faehim::Toolkit;
use std::time::Duration;

fn main() {
    let toolkit = Toolkit::new().expect("toolkit provisioning");
    print!("{}", toolkit.describe_components());

    println!("\nUDDI inquiry demonstration (§4.6):");
    // The registry is a gossip view; a category inquiry filters its
    // live records and sorts them by (service, host). Nothing
    // heartbeats the toolkit's deployments, so the window is unbounded.
    let view = toolkit.registry().view_snapshot();
    let now = toolkit.network().now();
    for category in ["classifier", "clustering", "visualisation", "data-handling"] {
        let hits = Planner::live_candidates(&view, category, now, Duration::MAX);
        let names: Vec<&str> = hits.iter().map(|e| e.name.as_str()).collect();
        println!("  category {category:?} -> {names:?}");
    }
}
