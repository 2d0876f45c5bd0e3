//! E3 — the §5 case study: full four-service workflow enactment
//! through the engine, serial and parallel, plus per-stage costs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::banner;
use dm_workflow::engine::Executor;
use faehim::casestudy::{build_case_study, run_case_study_on};
use faehim::Toolkit;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    banner(
        "E3 / §5",
        "case-study workflow (URL reader → C4.5 → analyser → visualiser)",
    );
    let toolkit = Toolkit::new().expect("toolkit");
    let result = run_case_study_on(&toolkit).expect("case study");
    println!("per-stage costs of one enactment:");
    for run in &result.report.runs {
        println!("  {:<32} {:?}", run.task, run.duration);
    }
    println!("analysis:\n{}", result.analysis);

    let (graph, _, bindings) = build_case_study(&toolkit).expect("workflow");
    let mut group = c.benchmark_group("e3_case_study");
    group.bench_function("serial_enactment", |b| {
        b.iter(|| {
            Executor::serial()
                .run(black_box(&graph), black_box(&bindings))
                .expect("run")
        })
    });
    group.bench_function("parallel_enactment", |b| {
        b.iter(|| {
            Executor::parallel()
                .run(black_box(&graph), black_box(&bindings))
                .expect("run")
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
