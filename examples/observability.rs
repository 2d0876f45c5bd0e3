//! Observability: run the §5 case-study workflow with causal tracing
//! on, print the span tree (workflow → task → SOAP call → transport
//! leg → dispatch → handler), and export the deployment's metrics in
//! Prometheus and JSON form.
//!
//! Run with `cargo run --example observability`.

#![forbid(unsafe_code)]

use faehim::casestudy::run_case_study_with;
use faehim::Toolkit;

fn main() {
    let toolkit = Toolkit::new().expect("toolkit provisioning");
    toolkit.enable_data_plane();
    let tracer = toolkit.enable_tracing();

    // Enact the case-study workflow; the executor, imported tools,
    // transport, containers, and service handlers all record spans into
    // the shared tracer, linked across the wire by the `traceparent`
    // SOAP header.
    let executor = toolkit.resilient_executor(None);
    let result = run_case_study_with(&toolkit, &executor).expect("case study");
    println!(
        "case study enacted: {} tasks, model root split intact: {}",
        result.report.runs.len(),
        result.model_text.contains("node-caps"),
    );

    println!("\n=== span tree ===");
    print!(
        "{}",
        dm_viz::spantree::render_span_tree(&tracer.finished_spans())
    );

    // The metrics registry absorbs the monitor log, wire counters,
    // attachment stores, and the classifier's model/eval caches.
    let metrics = toolkit.metrics_registry();
    println!("\n=== Prometheus exposition ===");
    print!("{}", metrics.export_prometheus());
    println!("\n=== JSON snapshot ===");
    println!("{}", metrics.export_json());
}
