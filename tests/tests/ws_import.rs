//! E5 — Figure 1's import behaviour: providing a WSDL interface
//! creates one workspace tool per operation, with ports mirroring the
//! message parts, usable inside composed workflows.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token, Tool};
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn one_tool_per_operation() {
    let toolkit = Toolkit::new().unwrap();
    let tools = toolkit
        .import_service(toolkit.primary_host(), "Classifier")
        .unwrap();
    let names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
    assert_eq!(
        names,
        vec![
            "Classifier.getClassifiers",
            "Classifier.getOptions",
            "Classifier.classifyInstance",
            "Classifier.classifyGraph",
            "Classifier.classifyInstances",
            "Classifier.crossValidate",
            "Classifier.getCacheStats",
        ]
    );
}

#[test]
fn imported_batch_tool_scores_instances() {
    // The batched operation decodes through the same WsTool path: one
    // envelope in, a list token of predicted labels out.
    let toolkit = Toolkit::new().unwrap();
    let tools = toolkit
        .import_service(toolkit.primary_host(), "Classifier")
        .unwrap();
    let batch = tools
        .iter()
        .find(|t| t.name().ends_with("classifyInstances"))
        .unwrap();
    assert_eq!(batch.input_ports().len(), 5);
    assert_eq!(batch.input_ports()[4].name, "instances");
    assert_eq!(batch.output_ports()[0].type_name, "list");
    let arff = dm_data::corpus::breast_cancer_arff();
    let out = batch
        .execute(&[
            Token::Text(arff.clone()),
            Token::Text("J48".to_string()),
            Token::Text(String::new()),
            Token::Text("Class".to_string()),
            Token::Text(arff),
        ])
        .unwrap();
    match &out[0] {
        Token::List(preds) => {
            assert_eq!(preds.len(), 286);
            assert!(matches!(&preds[0], Token::Text(label)
                if label == "no-recurrence-events" || label == "recurrence-events"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn imported_ports_mirror_wsdl_parts() {
    let toolkit = Toolkit::new().unwrap();
    let tools = toolkit
        .import_service(toolkit.primary_host(), "Classifier")
        .unwrap();
    let classify = tools
        .iter()
        .find(|t| t.name().ends_with("classifyInstance"))
        .unwrap();
    let inputs = classify.input_ports();
    assert_eq!(inputs.len(), 4);
    assert_eq!(inputs[0].name, "dataset");
    assert_eq!(inputs[1].name, "classifier");
    assert_eq!(inputs[2].name, "options");
    assert_eq!(inputs[3].name, "attribute");
    assert_eq!(classify.output_ports()[0].type_name, "string");
}

#[test]
fn imported_tool_runs_in_workflow() {
    let toolkit = Toolkit::new().unwrap();
    let mut tools = toolkit
        .import_service(toolkit.primary_host(), "DataConversion")
        .unwrap();
    let idx = tools
        .iter()
        .position(|t| t.name().ends_with(".csvToArff"))
        .unwrap();
    let csv_to_arff = tools.remove(idx);
    let mut g = TaskGraph::new();
    let t = g.add_task(Arc::new(csv_to_arff));
    let mut bindings = HashMap::new();
    bindings.insert((t, 0), Token::Text("a,b\n1,x\n2,y\n".to_string()));
    let report = Executor::serial().run(&g, &bindings).unwrap();
    match report.output(t, 0).unwrap() {
        Token::Text(arff) => assert!(arff.contains("@attribute a numeric")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn every_deployed_service_imports() {
    let toolkit = Toolkit::new().unwrap();
    let mut total_tools = 0;
    for record in toolkit.registry().view_snapshot() {
        let entry = record.entry;
        let tools = toolkit.import_service(&entry.host, &entry.name).unwrap();
        assert!(!tools.is_empty(), "{} produced no tools", entry.name);
        total_tools += tools.len();
    }
    assert!(total_tools >= 25, "only {total_tools} operation tools");
}

#[test]
fn case_study_taskgraph_xml_reimports_and_runs() {
    // Export the composed case study, re-import it purely from the
    // toolbox (tools resolved by name, as Triana does), and enact the
    // re-imported graph — the full share-a-workflow-as-XML path.
    let toolkit = Toolkit::new().unwrap();
    let (graph, _, bindings) = faehim::casestudy::build_case_study(&toolkit).unwrap();
    let xml = dm_workflow::xml::export_taskgraph(&graph);
    let imported = dm_workflow::xml::import_taskgraph(&xml, &toolkit.toolbox()).unwrap();
    assert_eq!(imported.num_tasks(), graph.num_tasks());
    assert_eq!(imported.cables(), graph.cables());
    // Bindings carry over by (task, port) because import preserves ids.
    let report = Executor::serial().run(&imported, &bindings).unwrap();
    let viewer = imported.find_task("TreeViewer").unwrap();
    match report.output(viewer, 0) {
        Some(Token::Text(model)) => assert!(model.contains("node-caps")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn wsdl_documents_roundtrip_through_xml() {
    let toolkit = Toolkit::new().unwrap();
    for record in toolkit.registry().view_snapshot() {
        let entry = record.entry;
        let wsdl = toolkit
            .network()
            .fetch_wsdl(&entry.host, &entry.name)
            .unwrap();
        let xml = wsdl.to_xml();
        let parsed = dm_wsrf::wsdl::WsdlDocument::from_xml(&xml).unwrap();
        assert_eq!(parsed, wsdl, "{} WSDL does not round-trip", entry.name);
    }
}
