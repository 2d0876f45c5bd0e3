//! Dataset-layer micro-benchmarks: the work a dataset-bearing service
//! call does below the SOAP envelope, on the dataset shapes
//! `mining_session` sends. For each shape it times `parse_arff` of the
//! ARFF text, an equal-width `Discretize` fit and apply (5 bins, class
//! set, as the `discretize` request asks), `DatasetSummary::of` with
//! its Figure-3 table, and the `InfoGain+Ranker` attribute ranking.
//!
//! Every parsed dataset must write back to its input text (the bench
//! panics otherwise). Then it prints one row of medians per shape.

#![forbid(unsafe_code)]

use dm_algorithms::attrsel::run_approach;
use dm_bench::{banner, median_nanos};
use dm_data::arff::{parse_arff, write_arff};
use dm_data::corpus::{breast_cancer_arff, gaussian_blobs, nominal_classification, BlobSpec};
use dm_data::filters::{Discretize, Filter};
use dm_data::summary::DatasetSummary;
use dm_data::Dataset;
use std::hint::black_box;

/// Three 4-dimensional Gaussian blobs of `per_blob` points each, as in
/// `mining_session`'s pool.
fn blobs(per_blob: usize, seed: u64) -> Dataset {
    let blob = |center: Vec<f64>| BlobSpec {
        center,
        stddev: 0.8,
        count: per_blob,
    };
    gaussian_blobs(
        &[
            blob(vec![0.0, 0.0, 0.0, 0.0]),
            blob(vec![4.0, 4.0, 0.0, 1.0]),
            blob(vec![0.0, 4.0, 4.0, 2.0]),
        ],
        seed,
    )
}

fn main() {
    banner(
        "dataset_layer",
        "ARFF parse, Discretize, summary and InfoGain+Ranker per dataset shape",
    );
    let shapes: Vec<(&str, String, &str)> = vec![
        ("breast_cancer", breast_cancer_arff(), "Class"),
        (
            "nominal_200x6",
            write_arff(&nominal_classification(200, 6, 3, 2, 0.1, 1)),
            "class",
        ),
        (
            "nominal_800x6",
            write_arff(&nominal_classification(800, 6, 3, 2, 0.1, 3)),
            "class",
        ),
        (
            "nominal_600x10",
            write_arff(&nominal_classification(600, 10, 4, 3, 0.1, 5)),
            "class",
        ),
        ("blobs_60", write_arff(&blobs(60, 6)), "cluster"),
        ("blobs_150", write_arff(&blobs(150, 7)), "cluster"),
    ];
    for (label, text, _) in &shapes {
        let ds = parse_arff(text).expect("shape parses");
        assert!(
            write_arff(&ds) == *text,
            "{label} does not write back to its input text"
        );
    }

    println!(
        "{:<16} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "shape", "rows", "attrs", "parse", "discretize", "summary", "rank"
    );
    for (label, text, class) in &shapes {
        let mut ds = parse_arff(text).expect("shape parses");
        ds.set_class_by_name(class).expect("class attribute");
        let parse = median_nanos(|| {
            black_box(parse_arff(black_box(text)).expect("parse"));
        });
        let discretize = median_nanos(|| {
            let filter = Discretize::fit(black_box(&ds), 5).expect("fit");
            black_box(filter.apply(&ds).expect("apply"));
        });
        let summary = median_nanos(|| {
            black_box(DatasetSummary::of(black_box(&ds)).to_table_string());
        });
        let rank = median_nanos(|| {
            black_box(run_approach("InfoGain+Ranker", black_box(&ds), 7).expect("rank"));
        });
        println!(
            "{label:<16} {:>5} {:>5} {:>8.2} us {:>8.2} us {:>8.2} us {:>8.2} us",
            ds.num_instances(),
            ds.num_attributes(),
            parse / 1e3,
            discretize / 1e3,
            summary / 1e3,
            rank / 1e3,
        );
    }
}
