//! Regenerates **Figure 4** of the paper: "Visualising the C4.5
//! decision tree for the breast-cancer data set" — the J48 Web Service
//! output, textual and graphical, with `node-caps` at the root.
//!
//! Run with `cargo run --example figure4_decision_tree`. Writes
//! `target/figure4_tree.svg` and `target/figure4_tree.dot`.

#![forbid(unsafe_code)]

use dm_algorithms::classifiers::{Classifier, J48};

fn main() {
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.train(&ds).expect("training");

    println!("Figure 4 — C4.5 decision tree for the breast-cancer data");
    println!("=========================================================\n");
    println!("{}", j48.describe());
    println!(
        "Root attribute: {} (paper: node-caps)",
        j48.root_attribute().unwrap_or("(leaf)")
    );

    let tree = j48.tree_model().expect("tree model");
    let mut spec = dm_viz::TreeSpec::new();
    for node in tree.nodes() {
        spec.add(node.label.clone(), node.edge.clone(), node.is_leaf);
    }
    for (i, node) in tree.nodes().iter().enumerate() {
        for &c in &node.children {
            spec.connect(i, c);
        }
    }

    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/figure4_tree.svg", spec.to_svg()).expect("write SVG");
    std::fs::write("target/figure4_tree.dot", tree.to_dot("J48")).expect("write DOT");
    println!("\nWrote target/figure4_tree.svg and target/figure4_tree.dot");

    // Resubstitution check: better than the 201/286 prior.
    let ci = ds.class_index().expect("class set");
    let correct = (0..ds.num_instances())
        .filter(|&r| j48.predict(&ds, r).expect("prediction") == ds.value(r, ci) as usize)
        .count();
    println!(
        "Training accuracy: {}/{} = {:.1}% (majority prior {:.1}%)",
        correct,
        ds.num_instances(),
        100.0 * correct as f64 / 286.0,
        100.0 * 201.0 / 286.0
    );
}
