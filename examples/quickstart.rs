//! Quickstart: provision the toolkit, walk the paper's §4.4 invocation
//! sequence against the general Classifier Web Service, and print the
//! resulting decision tree.
//!
//! Run with `cargo run --example quickstart`.

#![forbid(unsafe_code)]

use faehim::Toolkit;

fn main() {
    // Provision a host, deploy the FAEHIM suite, publish to UDDI.
    let toolkit = Toolkit::new().expect("toolkit provisioning");
    let client = toolkit.classifier_client();

    // Step 1 (§4.4): obtain the available classifiers.
    let classifiers = client.get_classifiers().expect("getClassifiers");
    println!("Available classifiers ({}):", classifiers.len());
    for name in &classifiers {
        println!("  {name}");
    }

    // Step 2: fetch the options of the selected classifier.
    println!("\nOptions of J48:");
    for (flag, name, description, default) in client.get_options("J48").expect("getOptions") {
        println!("  {flag} ({name}, default {default}): {description}");
    }

    // Step 3: invoke classifyInstance with its four inputs.
    let model = client
        .classify_instance(
            &dm_data::corpus::breast_cancer_arff(),
            "J48",
            "-C 0.25 -M 2",
            "Class",
        )
        .expect("classifyInstance");

    // Step 4: display the output.
    println!("\n{model}");

    // Testing the discovered knowledge (§3): cross-validate.
    let evaluation = client
        .cross_validate(
            &dm_data::corpus::breast_cancer_arff(),
            "J48",
            "",
            "Class",
            10,
        )
        .expect("crossValidate");
    println!("{evaluation}");

    // Local fold-parallel evaluation + a confusion-matrix heatmap (the
    // visualisation requirement of §3).
    let ds = dm_data::corpus::breast_cancer();
    let eval = dm_algorithms::eval::cross_validate_parallel(
        || dm_algorithms::registry::make_classifier("J48"),
        &ds,
        10,
        1,
    )
    .expect("parallel CV");
    let labels: Vec<String> = ds
        .class_attribute()
        .expect("class attribute")
        .labels()
        .to_vec();
    let svg = dm_viz::plot::confusion_heatmap(
        "J48 10-fold CV on breast-cancer",
        &labels,
        eval.confusion_matrix(),
    );
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/confusion_heatmap.svg", svg).expect("write SVG");
    println!(
        "Confusion-matrix heatmap written to target/confusion_heatmap.svg (accuracy {:.1}%)",
        100.0 * eval.accuracy()
    );
}
