//! E1 — Figure 3: regenerate the breast-cancer summary table and
//! measure its computation, locally and through the Web Service. The
//! service keeps the summary of a dataset it has already decoded, so
//! the cold row sends text the host has never seen (a fresh `%`
//! comment line each iteration) and pays for the parse and the
//! summary, while the warm row sends the same text every iteration
//! and is answered from the host's store.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::{banner, breast_cancer_arff};
use dm_data::summary::DatasetSummary;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    banner("E1 / Figure 3", "breast-cancer dataset summary table");
    let ds = dm_data::corpus::breast_cancer();
    let summary = DatasetSummary::of(&ds);
    print!("{}", summary.to_table_string());
    assert_eq!(summary.num_instances, 286);
    assert_eq!(summary.missing_values, 9);

    let mut group = c.benchmark_group("e1_summary");
    group.bench_function("compute_local", |b| {
        b.iter(|| DatasetSummary::of(black_box(&ds)))
    });

    let toolkit = faehim::Toolkit::new().expect("toolkit");
    let client = toolkit.convert_client();
    let mut n = 0u64;
    group.bench_function("via_web_service_cold", |b| {
        b.iter(|| {
            n += 1;
            let text = format!("% {n}\n{}", breast_cancer_arff());
            client.summary(black_box(&text)).expect("summary")
        })
    });
    group.bench_function("via_web_service_warm", |b| {
        b.iter(|| {
            client
                .summary(black_box(breast_cancer_arff()))
                .expect("summary")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
