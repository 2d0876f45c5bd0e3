//! The §5 case study, end to end: four Web Services — URL reader,
//! C4.5 classifier, output analyser, visualiser — composed with the
//! workflow engine, exactly as Figure 1 wires them.
//!
//! Run with `cargo run --example case_study`. Writes
//! `target/case_study_tree.svg`.

#![forbid(unsafe_code)]

use faehim::casestudy::{build_case_study, run_case_study_on};
use faehim::Toolkit;

fn main() {
    let toolkit = Toolkit::new().expect("toolkit provisioning");

    // Show the workflow before running it.
    let (graph, ..) = build_case_study(&toolkit).expect("workflow construction");
    println!(
        "Case-study workflow ({} tasks, {} cables):",
        graph.num_tasks(),
        graph.cables().len()
    );
    print!("{}", graph.render_text());
    println!(
        "\nTaskgraph XML export:\n{}",
        dm_workflow::xml::export_taskgraph(&graph)
    );
    println!("DAX export:\n{}", dm_workflow::xml::export_dax(&graph));

    // Enact.
    let result = run_case_study_on(&toolkit).expect("case study enactment");

    println!(
        "=== Figure 3: dataset summary ===\n{}",
        result.summary_table
    );
    println!(
        "=== Classifier Web Service output ===\n{}",
        result.model_text
    );
    println!("=== Tree analysis (service 3) ===\n{}\n", result.analysis);

    let svg_path = std::path::Path::new("target").join("case_study_tree.svg");
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(&svg_path, &result.tree_svg).expect("write SVG");
    println!(
        "=== Figure 4 ===\nDecision tree SVG written to {}",
        svg_path.display()
    );

    println!(
        "\nEnactment: {} tasks in {:?}",
        result.report.runs.len(),
        result.report.elapsed
    );
    for run in &result.report.runs {
        println!("  {:<32} {:?}", run.task, run.duration);
    }
    println!(
        "\nSimulated network time consumed: {:?}",
        toolkit.network().virtual_time()
    );
}
