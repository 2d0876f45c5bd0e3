//! Distributed scenario: three replica hosts, fault injection with job
//! migration (§3's fault-tolerance requirement), parallel enactment of
//! a cross-validation fan-out (Grid-WEKA-style distribution), and
//! streaming versus whole-dataset migration.
//!
//! Run with `cargo run --example distributed_mining`.

#![forbid(unsafe_code)]

use dm_data::stream::{chunk_dataset, RunningStats};
use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token, Tool};
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let toolkit = Toolkit::with_hosts(&["wesc-a", "wesc-b", "wesc-c"]).expect("toolkit");
    let net = toolkit.network();

    // --- Fault-tolerant invocation ---------------------------------------
    println!("=== Fault tolerance: job migration across replicas ===");
    let mut tools = toolkit.import_service("wesc-a", "J48").expect("import");
    let classify = tools.remove(0); // J48.classify with replicas b, c
    net.set_host_down("wesc-a", true);
    println!("wesc-a marked down; invoking J48.classify ...");
    let out = classify
        .execute(&[
            Token::Text(dm_data::corpus::breast_cancer_arff()),
            Token::Text("Class".into()),
            Token::Text(String::new()),
        ])
        .expect("failover execution");
    match &out[0] {
        Token::Text(model) => {
            let root = model.lines().find(|l| l.contains(" = ")).unwrap_or("?");
            println!("migrated to a replica; model root line: {root}");
        }
        other => println!("unexpected output {other:?}"),
    }
    net.set_host_down("wesc-a", false);

    // --- Parallel cross-validation fan-out --------------------------------
    println!("\n=== Parallel enactment: 3 classifiers across 3 hosts ===");
    let mut graph = TaskGraph::new();
    let dataset = graph.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));
    let mut sinks = Vec::new();
    for (i, (host, classifier)) in [
        ("wesc-a", "J48"),
        ("wesc-b", "NaiveBayes"),
        ("wesc-c", "IBk"),
    ]
    .iter()
    .enumerate()
    {
        let tools = toolkit.import_service(host, "Classifier").expect("import");
        let cv = tools
            .into_iter()
            .find(|t| t.name().ends_with(".crossValidate"))
            .expect("crossValidate tool");
        let id = graph.add_named_task(format!("cv-{classifier}"), Arc::new(cv));
        graph.connect(dataset, 0, id, 0).expect("wire dataset");
        let _ = i;
        sinks.push((id, classifier.to_string()));
    }
    let mut bindings = HashMap::new();
    for &(id, ref classifier) in &sinks {
        bindings.insert((id, 1), Token::Text(classifier.clone()));
        bindings.insert((id, 2), Token::Text(String::new()));
        bindings.insert((id, 3), Token::Text("Class".into()));
        bindings.insert((id, 4), Token::Int(10));
    }
    let report = Executor::parallel()
        .run(&graph, &bindings)
        .expect("parallel run");
    for (id, classifier) in &sinks {
        if let Some(Token::Text(summary)) = report.output(*id, 0) {
            let accuracy = summary
                .lines()
                .find(|l| l.starts_with("Correctly Classified"))
                .unwrap_or("?");
            println!("  {classifier:<12} {accuracy}");
        }
    }
    println!("  wall-clock: {:?}", report.elapsed);

    // --- Streaming vs migration -------------------------------------------
    println!("\n=== Streaming vs whole-dataset migration (§3) ===");
    let big = dm_data::corpus::nominal_classification(20_000, 8, 4, 2, 0.1, 99);
    let batches = chunk_dataset(&big, 256).expect("chunking");
    let mut stats = RunningStats::new(big.num_attributes());
    for b in &batches {
        stats.update(b);
    }
    let streamed_bytes: usize = batches.iter().map(|b| b.byte_len()).sum();
    let migrated_bytes = dm_data::arff::write_arff(&big).len();
    println!(
        "  processed {} rows in {} batches while streaming ({} stream bytes vs {} migrated ARFF bytes)",
        stats.rows,
        batches.len(),
        streamed_bytes,
        migrated_bytes
    );
    let cfg = net.config();
    println!(
        "  virtual transfer time: stream {:?} (amortised) vs migrate {:?} (up-front)",
        cfg.transmit_time(streamed_bytes),
        cfg.transmit_time(migrated_bytes)
    );

    // --- Monitoring --------------------------------------------------------
    // The network's log records every attempt at the transport, the
    // failed one on the downed host included; bytes are whole envelopes.
    println!("\n=== Service monitoring (§3) ===");
    for s in net.monitor().summary_by_host() {
        println!(
            "  {}: {} invocations, {} faults, {} transport errors, {} bytes in, {} bytes out",
            s.host, s.invocations, s.faults, s.transport_errors, s.bytes_in, s.bytes_out
        );
    }
}
