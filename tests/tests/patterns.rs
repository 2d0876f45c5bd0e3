//! E10 — pattern operators and hierarchical services over real Web
//! Service tools: star fan-out of classifier calls, grouped
//! sub-workflows, and parallel-vs-serial equivalence.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token, Tool};
use dm_workflow::group::GroupTool;
use dm_workflow::patterns;
use faehim::Toolkit;
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn star_of_cross_validations() {
    // Fan the dataset out to several classifier evaluations (the
    // Grid-WEKA distribution pattern) and enact in parallel.
    let toolkit = Toolkit::new().unwrap();
    let mut graph = TaskGraph::new();
    let source = graph.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));

    let classifiers = ["ZeroR", "OneR", "NaiveBayes"];
    let mut bindings = HashMap::new();
    let workers = patterns::widen_star(
        &mut graph,
        source,
        0,
        || {
            let tools = toolkit
                .import_service(toolkit.primary_host(), "Classifier")
                .unwrap();
            Arc::new(
                tools
                    .into_iter()
                    .find(|t| t.name().ends_with(".crossValidate"))
                    .unwrap(),
            )
        },
        classifiers.len(),
    )
    .unwrap();
    for (&worker, name) in workers.iter().zip(classifiers) {
        bindings.insert((worker, 1), Token::Text(name.to_string()));
        bindings.insert((worker, 2), Token::Text(String::new()));
        bindings.insert((worker, 3), Token::Text("Class".to_string()));
        bindings.insert((worker, 4), Token::Int(5));
    }

    let serial = Executor::serial().run(&graph, &bindings).unwrap();
    let parallel = Executor::parallel().run(&graph, &bindings).unwrap();
    for &w in &workers {
        let s = serial.output(w, 0).unwrap();
        let p = parallel.output(w, 0).unwrap();
        assert_eq!(s, p, "parallel result diverged");
        assert!(matches!(s, Token::Text(t) if t.contains("Correctly Classified")));
    }
}

#[test]
fn pipeline_pattern_over_services() {
    // csvToArff → summary, as a pipeline of imported operation tools.
    let toolkit = Toolkit::new().unwrap();
    let toolbox = toolkit.toolbox();
    let mut graph = TaskGraph::new();
    let ids = patterns::pipeline(
        &mut graph,
        vec![
            toolbox.find("DataConversion.csvToArff").unwrap(),
            toolbox.find("DataConversion.summary").unwrap(),
        ],
    )
    .unwrap();
    let mut bindings = HashMap::new();
    bindings.insert(
        (ids[0], 0),
        Token::Text("age,class\n30,a\n40,b\n".to_string()),
    );
    let report = Executor::serial().run(&graph, &bindings).unwrap();
    assert!(matches!(
        report.output(ids[1], 0),
        Some(Token::Text(t)) if t.contains("Num Instances 2")
    ));
}

#[test]
fn hierarchical_service_wraps_classification() {
    // A group exposing one input (the dataset) and one output (the
    // model): "a single service made up of a number of others".
    let toolkit = Toolkit::new().unwrap();
    let toolbox = toolkit.toolbox();
    let mut inner = TaskGraph::new();
    let attr = inner.add_task(Arc::new(faehim::tools::AttributeSelector::new("Class")));
    let classify = inner.add_task(toolbox.find("J48.classify").unwrap());
    inner.connect(attr, 0, classify, 1).unwrap();
    // classify inputs: dataset(0), attribute(1), options(2).
    // Expose dataset twice is impossible (one port one cable), so the
    // group exposes classify.dataset and attr.dataset separately and
    // the caller feeds both; options is exposed as a third input.
    let group = GroupTool::new(
        "J48Classification",
        inner,
        vec![(classify, 0), (attr, 0), (classify, 2)],
        vec![(classify, 0)],
    )
    .unwrap();

    let mut outer = TaskGraph::new();
    let data = outer.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));
    let g = outer.add_task(Arc::new(group));
    outer.connect(data, 0, g, 0).unwrap();
    outer.connect(data, 0, g, 1).unwrap();
    let mut bindings = HashMap::new();
    bindings.insert((g, 2), Token::Text(String::new()));
    let report = Executor::serial().run(&outer, &bindings).unwrap();
    assert!(matches!(
        report.output(g, 0),
        Some(Token::Text(t)) if t.contains("node-caps")
    ));
}

#[test]
fn parallel_star_speedup_shape() {
    // With per-task compute, a width-4 star should not be slower in
    // parallel than serially (allowing generous noise margins). Each
    // worker sends its own options and each mode runs on a fresh
    // toolkit, so no cross-validation is an evaluation-cache hit.
    let elapsed = |executor: Executor| {
        let toolkit = Toolkit::new().unwrap();
        let mut graph = TaskGraph::new();
        let source = graph.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));
        let workers = patterns::widen_star(
            &mut graph,
            source,
            0,
            || {
                let tools = toolkit
                    .import_service(toolkit.primary_host(), "Classifier")
                    .unwrap();
                Arc::new(
                    tools
                        .into_iter()
                        .find(|t| t.name().ends_with(".crossValidate"))
                        .unwrap(),
                )
            },
            4,
        )
        .unwrap();
        let mut bindings = HashMap::new();
        for (i, &w) in workers.iter().enumerate() {
            bindings.insert((w, 1), Token::Text("J48".to_string()));
            bindings.insert((w, 2), Token::Text(format!("-M {}", i + 2)));
            bindings.insert((w, 3), Token::Text("Class".to_string()));
            bindings.insert((w, 4), Token::Int(10));
        }
        let elapsed = executor.run(&graph, &bindings).unwrap().elapsed;
        let (_, evals) = toolkit.classifier_client().get_cache_stats().unwrap();
        assert_eq!((evals.hits, evals.misses), (0, 4), "{evals:?}");
        elapsed
    };
    let serial = elapsed(Executor::serial());
    let parallel = elapsed(Executor::parallel());
    assert!(
        parallel <= serial * 3 / 2,
        "parallel {parallel:?} vs serial {serial:?}"
    );
}
