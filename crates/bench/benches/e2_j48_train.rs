//! E2 — Figure 4: J48/C4.5 over the breast-cancer data. Verifies the
//! node-caps root, prints the tree, and measures training, batch
//! scoring, the tree's text and graph rendering across dataset shapes
//! and scales: the shapes `mining_session` trains J48 on
//! (breast-cancer, nominal 800×6, Gaussian blobs of 60 and 150 per
//! blob), then larger nominal sets.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_bench::banner;
use dm_data::corpus::{gaussian_blobs, nominal_classification, BlobSpec};
use dm_data::Dataset;
use std::hint::black_box;

/// Three 4-dimensional Gaussian blobs of `per_blob` points each, as in
/// `mining_session`'s pool (class `cluster`).
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

fn bench(c: &mut Criterion) {
    banner(
        "E2 / Figure 4",
        "C4.5 decision tree (root must be node-caps)",
    );
    let ds = dm_data::corpus::breast_cancer();
    let mut j48 = J48::new();
    j48.train(&ds).expect("training");
    println!("{}", j48.describe());
    assert_eq!(j48.root_attribute(), Some("node-caps"));

    let mut group = c.benchmark_group("e2_j48");
    let shapes = [
        ("breast_cancer_286", ds.clone()),
        (
            "nominal_800x6",
            nominal_classification(800, 6, 3, 2, 0.1, 3),
        ),
        ("blobs_60", blobs(60, 6)),
        ("blobs_150", blobs(150, 7)),
    ];
    for (name, data) in &shapes {
        group.bench_function(&format!("train_{name}"), |b| {
            b.iter(|| {
                let mut model = J48::new();
                model.train(black_box(data)).expect("training");
                model
            })
        });
        let mut model = J48::new();
        model.train(data).expect("training");
        group.bench_function(&format!("predict_batch_{name}"), |b| {
            b.iter(|| model.predict_batch(black_box(data)).expect("scoring"))
        });
        group.bench_function(&format!("describe_{name}"), |b| {
            b.iter(|| black_box(&model).describe())
        });
    }

    for &rows in &[1_000usize, 5_000, 20_000] {
        let big = dm_data::corpus::nominal_classification(rows, 9, 4, 2, 0.15, 42);
        group.bench_with_input(
            BenchmarkId::new("train_synthetic", rows),
            &big,
            |b, data| {
                b.iter(|| {
                    let mut model = J48::new();
                    model.train(black_box(data)).expect("training");
                    model
                })
            },
        );
    }

    group.bench_function("render_tree_svg", |b| {
        let tree = j48.tree_model().expect("tree");
        b.iter(|| {
            let mut spec = dm_viz::TreeSpec::new();
            for node in tree.nodes() {
                spec.add(node.label.clone(), node.edge.clone(), node.is_leaf);
            }
            for (i, node) in tree.nodes().iter().enumerate() {
                for &child in &node.children {
                    spec.connect(i, child);
                }
            }
            black_box(spec.to_svg())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
