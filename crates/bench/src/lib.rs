//! Shared helpers for the `faehim-rs` benchmark harness.
//!
//! Each Criterion bench target regenerates one experiment of the
//! per-experiment index in DESIGN.md (E1–E11). Benches print the
//! paper-shaped rows/series before measuring, so `cargo bench` output
//! doubles as the EXPERIMENTS.md evidence.

#![forbid(unsafe_code)]

pub mod row_major;

use dm_services::classifier_ws::ClassifierService;
use dm_wsrf::container::WebService;
use dm_wsrf::soap::SoapValue;
use std::time::Instant;

/// The case-study dataset as ARFF text (cached per process).
pub fn breast_cancer_arff() -> &'static str {
    use std::sync::OnceLock;
    static ARFF: OnceLock<String> = OnceLock::new();
    ARFF.get_or_init(dm_data::corpus::breast_cancer_arff)
}

/// Standard argument vector for J48Service::classify.
pub fn j48_classify_args() -> Vec<(String, SoapValue)> {
    vec![
        (
            "dataset".to_string(),
            SoapValue::Text(breast_cancer_arff().to_string()),
        ),
        ("attribute".to_string(), SoapValue::Text("Class".into())),
        ("options".to_string(), SoapValue::Text(String::new())),
    ]
}

/// Print a banner for an experiment.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// The `classifyGraph` and `classifyInstances` responses of the case
/// study: J48 on the breast-cancer data, scoring its own 286 rows.
pub fn case_study_responses() -> (SoapValue, SoapValue) {
    let service = ClassifierService::new();
    let text = |s: &str| SoapValue::Text(s.to_string());
    let mut args = vec![
        ("dataset".to_string(), text(breast_cancer_arff())),
        ("classifier".to_string(), text("J48")),
        ("options".to_string(), text("")),
        ("attribute".to_string(), text("Class")),
    ];
    let svg = service
        .invoke("classifyGraph", &args)
        .expect("J48 draws its tree");
    args.push(("instances".to_string(), text(breast_cancer_arff())));
    let predictions = service
        .invoke("classifyInstances", &args)
        .expect("J48 scores the batch");
    (svg, predictions)
}

/// Median time of one `f()` in nanoseconds: 15 samples of a batch
/// sized to take about 2 ms.
pub fn median_nanos(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    let iters = (2_000_000 / once).clamp(1, 10_000) as u32;
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
