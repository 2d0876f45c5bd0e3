//! E3 — the §5 case study: four Web Services composed through the
//! workflow engine, reproducing every artifact the paper reports.

#![forbid(unsafe_code)]

use dm_workflow::engine::{ExecutionReport, Executor};
use faehim::casestudy::{
    build_case_study, run_case_study, run_case_study_on, CaseStudyTasks, BREAST_CANCER_URL,
};
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

/// After the first enactment, `readArff`, `classifyInstance` and
/// `classifyGraph` answer with the text their host kept from it. Every
/// engine's warm outputs must equal a fresh toolkit's cold ones, byte
/// for byte, and a warm enactment must train nothing.
#[test]
fn warm_enactments_match_a_cold_enactment() {
    let outputs = |tasks: &CaseStudyTasks, report: &ExecutionReport| -> Vec<String> {
        [tasks.analyser, tasks.viewer, tasks.visualise]
            .into_iter()
            .map(|task| {
                report
                    .output(task, 0)
                    .unwrap()
                    .as_text()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let fresh = Toolkit::new().unwrap();
    let (graph, tasks, bindings) = build_case_study(&fresh).unwrap();
    let cold = outputs(&tasks, &Executor::serial().run(&graph, &bindings).unwrap());
    assert!(cold[2].starts_with("<svg"));

    let mut toolkit = Toolkit::new().unwrap();
    toolkit.enable_durable_enactment(2);
    let (graph, tasks, bindings) = build_case_study(&toolkit).unwrap();
    let first = Executor::serial().run(&graph, &bindings).unwrap();
    assert_eq!(outputs(&tasks, &first), cold, "first enactment");
    let classifier = toolkit.classifier_client();
    let (models, _) = classifier.get_cache_stats().unwrap();
    assert_eq!((models.misses, models.hits), (2, 0));
    for (warm, engine) in (1..).zip(["serial", "parallel", "durable"]) {
        let report = match engine {
            "serial" => Executor::serial().run(&graph, &bindings),
            "parallel" => Executor::parallel().run(&graph, &bindings),
            _ => toolkit.run_durable(&graph, &bindings),
        }
        .unwrap();
        assert_eq!(outputs(&tasks, &report), cold, "{engine}");
        let (models, _) = classifier.get_cache_stats().unwrap();
        assert_eq!((models.misses, models.hits), (2, 2 * warm), "{engine}");
    }
}
