//! E2 — Figure 4: the C4.5/J48 decision tree over the breast-cancer
//! data must put `node-caps` at the root, render textually and as SVG,
//! and behave sensibly under option changes.

#![forbid(unsafe_code)]

use dm_algorithms::classifiers::{Classifier, J48};
use dm_algorithms::options::Configurable;

#[test]
fn j48_root_is_node_caps() {
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.train(&ds).unwrap();
    assert_eq!(j48.root_attribute(), Some("node-caps"));
}

#[test]
fn j48_text_output_shape() {
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.train(&ds).unwrap();
    let text = j48.describe();
    assert!(text.contains("J48 pruned tree"));
    assert!(text.lines().any(|l| l.starts_with("node-caps = ")));
    assert!(text.contains("Number of Leaves"));
    assert!(text.contains("Size of the tree"));
}

#[test]
fn j48_served_graph_is_svg_with_root() {
    let toolkit = faehim::Toolkit::new().unwrap();
    let svg = toolkit
        .j48_client()
        .classify_graph(&dm_data::corpus::breast_cancer_arff(), "Class", "")
        .unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("node-caps"));
    assert!(svg.contains("recurrence-events"));
}

#[test]
fn unpruned_root_unchanged() {
    // Pruning must not be what produces the node-caps root.
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.set_option("-U", "true").unwrap();
    j48.train(&ds).unwrap();
    assert_eq!(j48.root_attribute(), Some("node-caps"));
}

#[test]
fn j48_beats_majority_prior_in_sample() {
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.train(&ds).unwrap();
    let ci = ds.class_index().unwrap();
    let correct = (0..ds.num_instances())
        .filter(|&r| j48.predict(&ds, r).unwrap() == ds.value(r, ci) as usize)
        .count();
    assert!(correct > 201, "in-sample correct = {correct}, prior = 201");
}
