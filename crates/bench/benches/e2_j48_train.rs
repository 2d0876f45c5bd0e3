//! E2 — Figure 4: J48/C4.5 over the breast-cancer data. Verifies the
//! node-caps root, prints the tree, and measures training and graph
//! rendering across dataset scales.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_bench::banner;
use std::hint::black_box;

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
    group.bench_function("train_breast_cancer_286", |b| {
        b.iter(|| {
            let mut model = J48::new();
            model.train(black_box(&ds)).expect("training");
            model
        })
    });

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
