//! E3 — the §5 case study: four Web Services composed through the
//! workflow engine, reproducing every artifact the paper reports.

use faehim::casestudy::{build_case_study, run_case_study, run_case_study_on, BREAST_CANCER_URL};
use faehim::Toolkit;

#[test]
fn end_to_end_case_study() {
    let result = run_case_study().unwrap();
    assert!(result.model_text.contains("node-caps"));
    assert!(result.analysis.contains("root attribute: node-caps"));
    assert!(result.tree_svg.starts_with("<svg"));
    assert!(result.summary_table.contains("Num Instances 286"));
    assert_eq!(result.report.runs.len(), 10);
    assert_eq!(result.report.total_retries(), 0);
}

#[test]
fn case_study_consumes_network_time() {
    let toolkit = Toolkit::new().unwrap();
    toolkit.network().reset_virtual_time();
    run_case_study_on(&toolkit).unwrap();
    // The ARFF dataset crosses the wire several times; at 1 Gb/s with
    // 0.5 ms per-message latency the total must be measurable.
    let t = toolkit.network().virtual_time();
    assert!(t.as_micros() > 1000, "virtual time {t:?}");
}

#[test]
fn case_study_invocations_are_monitored() {
    let toolkit = Toolkit::new().unwrap();
    run_case_study_on(&toolkit).unwrap();
    let summary = toolkit.network().monitor().summary(None);
    // readArff + getClassifiers + getOptions + classifyInstance +
    // classifyGraph + the direct summary call = 6 service invocations.
    assert!(
        summary.invocations >= 6,
        "only {} invocations",
        summary.invocations
    );
    assert_eq!(summary.faults, 0);
}

#[test]
fn url_reader_serves_case_study_url() {
    let toolkit = Toolkit::new().unwrap();
    let arff = toolkit
        .convert_client()
        .read_arff(BREAST_CANCER_URL)
        .unwrap();
    let ds = dm_data::arff::parse_arff(&arff).unwrap();
    assert_eq!(ds.num_instances(), 286);
}

#[test]
fn workflow_rewires_for_other_classifiers() {
    // The same composed graph drives a different algorithm by changing
    // the selection — the point of the *general* classifier service.
    let toolkit = Toolkit::new().unwrap();
    let (graph, tasks, mut bindings) = build_case_study(&toolkit).unwrap();
    let _ = (&graph, &tasks);
    // Rebuild with NaiveBayes selected; classifyGraph would fault (not
    // a tree), so run only up to the classify stage by replacing the
    // selector — here we simply call the client directly to verify the
    // swap works at the service level.
    bindings.clear();
    let model = toolkit
        .classifier_client()
        .classify_instance(
            &dm_data::corpus::breast_cancer_arff(),
            "NaiveBayes",
            "",
            "Class",
        )
        .unwrap();
    assert!(model.contains("Naive Bayes"));
}
