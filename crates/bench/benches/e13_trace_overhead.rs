//! E13 — observability overhead: the warm E12 case-study run with
//! causal tracing on versus off. Tracing adds one `traceparent` SOAP
//! header per envelope (109 bytes against a 500 µs per-leg latency
//! floor) plus in-memory span records, so the simulated-time overhead
//! must stay under 5%.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::banner;
use dm_workflow::engine::Executor;
use dm_workflow::memo::MemoCache;
use faehim::casestudy::run_case_study_with;
use faehim::Toolkit;
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    banner(
        "E13",
        "tracing overhead on the warm data-plane case-study run",
    );

    let toolkit = Toolkit::new().expect("toolkit");
    toolkit.enable_data_plane();
    let net = toolkit.network();
    let memo = Arc::new(MemoCache::new(64));
    let untraced_exec = Executor::serial().with_memoisation(Arc::clone(&memo));

    // Cold run to fill the attachment stores, model cache, and memo
    // cache; both measured runs below are warm.
    run_case_study_with(&toolkit, &untraced_exec).expect("cold run");

    net.reset_wire_stats();
    let start = net.now();
    let plain = run_case_study_with(&toolkit, &untraced_exec).expect("untraced warm run");
    let untraced_time = net.now() - start;
    let untraced_wire = net.wire_stats();

    let tracer = toolkit.enable_tracing();
    let traced_exec = Executor::serial()
        .with_memoisation(Arc::clone(&memo))
        .with_tracing(Arc::clone(&tracer));
    net.reset_wire_stats();
    let start = net.now();
    let traced = run_case_study_with(&toolkit, &traced_exec).expect("traced warm run");
    let traced_time = net.now() - start;
    let traced_wire = net.wire_stats();
    assert_eq!(
        plain.model_text, traced.model_text,
        "outputs must not change"
    );

    let overhead = traced_time.as_nanos() as f64 / untraced_time.as_nanos().max(1) as f64 - 1.0;
    println!("warm case-study enactment, tracing off vs on:");
    println!(
        "  untraced: {} wire bytes, {:?} simulated network time",
        untraced_wire.bytes, untraced_time
    );
    println!(
        "  traced:   {} wire bytes, {:?} simulated network time, {} spans",
        traced_wire.bytes,
        traced_time,
        tracer.len()
    );
    println!(
        "  overhead: {:.3}% simulated time, {} header bytes",
        overhead * 100.0,
        traced_wire.bytes.saturating_sub(untraced_wire.bytes)
    );
    assert!(
        overhead < 0.05,
        "tracing overhead {overhead:.4} breaches the 5% budget"
    );

    let spans = tracer.finished_spans();
    println!("\n{}", dm_viz::spantree::render_span_tree(&spans));

    let mut group = c.benchmark_group("e13_trace_overhead");
    group.bench_function("warm_untraced", |b| {
        b.iter(|| run_case_study_with(black_box(&toolkit), &untraced_exec).expect("run"))
    });
    group.bench_function("warm_traced", |b| {
        b.iter(|| run_case_study_with(black_box(&toolkit), &traced_exec).expect("run"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
