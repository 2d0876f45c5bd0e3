//! E10 — pattern operators and parallel enactment: a star of
//! cross-validation calls fanned over the workflow engine, serial vs
//! parallel, width 1–8. Expected shape: parallel wall-clock grows far
//! slower than serial as the star widens, saturating at the core count.
//!
//! Each star worker cross-validates J48 with its own options (`-M 2`,
//! `-M 3`, …), and the shape table runs each mode on a fresh toolkit,
//! so every cell of the table is real cross-validations, never an
//! evaluation-cache hit. The criterion cells reuse one toolkit and one
//! graph: after their first iteration every call is a cache hit, so they
//! time the enactment and the SOAP round trips rather than the mining,
//! and every claim's cost is known and small, so a parallel cell keeps
//! its claims on the calling thread until the star's known costs add up
//! past the executor's hand-off limit (`dm_workflow::durable`).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_bench::banner;
use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskGraph, Token, Tool};
use dm_workflow::patterns;
use faehim::Toolkit;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn star(toolkit: &Toolkit, width: usize) -> (TaskGraph, HashMap<(usize, usize), Token>) {
    let mut graph = TaskGraph::new();
    let source = graph.add_task(Arc::new(faehim::tools::LocalDataset::breast_cancer()));
    let workers = patterns::widen_star(
        &mut graph,
        source,
        0,
        || {
            let tools = toolkit
                .import_service(toolkit.primary_host(), "Classifier")
                .expect("import");
            Arc::new(
                tools
                    .into_iter()
                    .find(|t| t.name().ends_with(".crossValidate"))
                    .expect("crossValidate"),
            )
        },
        width,
    )
    .expect("star");
    let mut bindings = HashMap::new();
    for (i, &w) in workers.iter().enumerate() {
        bindings.insert((w, 1), Token::Text("J48".to_string()));
        bindings.insert((w, 2), Token::Text(format!("-M {}", i + 2)));
        bindings.insert((w, 3), Token::Text("Class".to_string()));
        bindings.insert((w, 4), Token::Int(10));
    }
    (graph, bindings)
}

fn shape_table() {
    banner(
        "E10 / §2,§4",
        "parallel enactment of a widening star of CV jobs",
    );
    println!(
        "available parallelism: {} core(s) — expected parallel speedup saturates here",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "width", "serial", "parallel", "speedup"
    );
    // A fresh toolkit per mode, so neither mode finds the other's
    // evaluations in the cache.
    let timed = |executor: Executor, width: usize| {
        let toolkit = Toolkit::new().expect("toolkit");
        let (graph, bindings) = star(&toolkit, width);
        let start = Instant::now();
        executor.run(&graph, &bindings).expect("run");
        start.elapsed()
    };
    for &width in &[1usize, 2, 4, 8] {
        let serial = timed(Executor::serial(), width);
        let parallel = timed(Executor::parallel(), width);
        println!(
            "{width:>6} {serial:>14.3?} {parallel:>14.3?} {:>8.2}x",
            serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12)
        );
    }
}

fn bench(c: &mut Criterion) {
    shape_table();
    let toolkit = Toolkit::new().expect("toolkit");
    let mut group = c.benchmark_group("e10_parallel_enactment");
    for &width in &[2usize, 4, 8] {
        let (graph, bindings) = star(&toolkit, width);
        group.bench_with_input(BenchmarkId::new("serial", width), &width, |b, _| {
            b.iter(|| black_box(Executor::serial().run(&graph, &bindings).expect("run")))
        });
        group.bench_with_input(BenchmarkId::new("parallel", width), &width, |b, _| {
            b.iter(|| black_box(Executor::parallel().run(&graph, &bindings).expect("run")))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
