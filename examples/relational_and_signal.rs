//! The paper's extensions, end to end:
//!
//! * **Relational data access** (§5.4 future work, "access to
//!   relational databases through the OGSA-DAI services"): discover a
//!   relational resource, query it with selection + projection, and
//!   feed the result straight into the C4.5 classifier service.
//! * **Session management** (§5.4): an interactive sequence whose
//!   selections are carried by the Session service.
//! * **Signal processing** (§2, the Triana toolbox): a SignalGen →
//!   PowerSpectrum → PeakDetector workflow, plus streaming a dataset
//!   into the incremental Naive Bayes learner.
//!
//! Run with `cargo run --example relational_and_signal`.

#![forbid(unsafe_code)]

use dm_algorithms::classifiers::{Classifier, NaiveBayes};
use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token};
use dm_wsrf::soap::SoapValue;
use faehim::Toolkit;
use std::collections::HashMap;

fn main() {
    let toolkit = Toolkit::new().expect("toolkit provisioning");
    let net = toolkit.network();
    let host = toolkit.primary_host().to_string();

    // --- OGSA-DAI-style relational access --------------------------------
    println!("=== Relational data access (future work, §5.4) ===");
    let resources = net
        .invoke(&host, "DataAccess", "listResources", vec![])
        .expect("listResources");
    println!("resources: {:?}", resources);

    let arff = net
        .invoke(
            &host,
            "DataAccess",
            "query",
            vec![
                ("resource".into(), SoapValue::Text("breast_cancer".into())),
                ("select".into(), SoapValue::Text(String::new())),
                ("where".into(), SoapValue::Text("menopause=premeno".into())),
                ("limit".into(), SoapValue::Int(i64::MAX)),
            ],
        )
        .expect("query");
    let subset = dm_data::arff::parse_arff(arff.as_text().expect("text")).expect("parse");
    println!(
        "query menopause=premeno returned {} of 286 rows",
        subset.num_instances()
    );

    let model = toolkit
        .classifier_client()
        .classify_instance(arff.as_text().expect("text"), "J48", "", "Class")
        .expect("classify the query result");
    let root = model
        .lines()
        .find(|l| l.contains(" = "))
        .unwrap_or("(leaf)");
    println!("J48 over the query result; first split: {root}\n");

    // --- Session management ----------------------------------------------
    println!("=== Session management (§5.4) ===");
    let session = net
        .invoke(&host, "Session", "createSession", vec![])
        .expect("createSession");
    let session_id = session.as_text().expect("text").to_string();
    for (key, value) in [
        ("classifier", "J48"),
        ("options", "-C 0.25 -M 2"),
        ("attribute", "Class"),
    ] {
        net.invoke(
            &host,
            "Session",
            "putAttribute",
            vec![
                ("sessionId".into(), SoapValue::Text(session_id.clone())),
                ("key".into(), SoapValue::Text(key.into())),
                ("value".into(), SoapValue::Text(value.into())),
            ],
        )
        .expect("putAttribute");
    }
    let keys = net
        .invoke(
            &host,
            "Session",
            "listAttributes",
            vec![("sessionId".into(), SoapValue::Text(session_id.clone()))],
        )
        .expect("listAttributes");
    println!("session {session_id} carries {:?}\n", keys);

    // --- Signal processing -------------------------------------------------
    println!("=== Signal processing toolbox (§2) ===");
    let toolbox = toolkit.toolbox();
    let mut g = TaskGraph::new();
    let gen = g.add_task(std::sync::Arc::new(faehim::signal_tools::SignalGen::tones(
        vec![(50.0, 1.0), (120.0, 0.7)],
        1000.0,
        2048,
    )));
    let spectrum = g.add_task(toolbox.find("PowerSpectrum").expect("tool"));
    let peaks = g.add_task(toolbox.find("PeakDetector").expect("tool"));
    g.connect(gen, 0, spectrum, 0).expect("wire");
    g.connect(spectrum, 0, peaks, 0).expect("wire");
    let report = Executor::serial().run(&g, &HashMap::new()).expect("run");
    if let Some(Token::Text(text)) = report.output(peaks, 0) {
        print!("{text}");
    }

    // --- Streaming into the incremental learner -----------------------------
    println!("\n=== Streaming Naive Bayes (incremental learner) ===");
    let ds = dm_data::corpus::breast_cancer();
    let chunks = dm_data::stream::chunk_dataset(&ds, 32).expect("chunking");
    let mut nb = NaiveBayes::new();
    let mut seed = ds.header_clone();
    for i in 0..chunks[0].num_rows() {
        seed.push_row(chunks[0].row_values(i)).expect("row");
    }
    nb.train(&seed).expect("seed training");
    for (i, chunk) in chunks[1..].iter().enumerate() {
        nb.update_batch(chunk).expect("incremental update");
        if (i + 2) % 3 == 0 {
            println!(
                "  after {:>3} instances: observed weight {}",
                nb.observed_weight(),
                nb.observed_weight()
            );
        }
    }
    let ci = ds.class_index().expect("class");
    let correct = (0..ds.num_instances())
        .filter(|&r| nb.predict(&ds, r).expect("predict") == ds.value(r, ci) as usize)
        .count();
    println!(
        "streamed all 286 instances; in-sample accuracy {:.1}%",
        100.0 * correct as f64 / 286.0
    );
}
