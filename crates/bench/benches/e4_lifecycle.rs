//! E4 — §4.5: the serialisation penalty. Repeated invocations of the
//! J48 Web Service under the default Axis-style serialize-per-call
//! lifecycle versus the paper's in-memory harness.
//!
//! Two scenarios:
//!
//! * **interactive session** (the paper's motivating case): a large
//!   trained model, small per-request work (`predict` on a handful of
//!   instances). Per-call serialisation re-reads and re-writes the full
//!   model state on every request — the penalty grows with model size
//!   while the useful work stays constant.
//! * **classify** (the control): the service keeps every tree it has
//!   grown, so the cold row sends text it has never seen (a fresh `%`
//!   comment line each iteration) and pays for the parse and the
//!   training, where the gap between the lifecycles is small — the
//!   penalty is lifecycle overhead, not algorithm cost; the warm row
//!   sends the same text every iteration and takes the kept tree, so
//!   it shows the lifecycle alone.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_bench::{banner, breast_cancer_arff, j48_classify_args};
use dm_services::j48_ws::J48Service;
use dm_wsrf::container::WebService;
use dm_wsrf::lifecycle::LifecyclePolicy;
use dm_wsrf::soap::SoapValue;
use std::hint::black_box;
use std::time::Instant;

/// A large training set (deep tree) and a small prediction probe.
fn big_and_probe(rows: usize) -> (String, String) {
    let big = dm_data::corpus::nominal_classification(rows, 12, 4, 2, 0.25, 99);
    let probe = big.select_rows(&(0..10).collect::<Vec<_>>());
    (
        dm_data::arff::write_arff(&big),
        dm_data::arff::write_arff(&probe),
    )
}

fn trained_service(policy: LifecyclePolicy, big_arff: &str) -> J48Service {
    let s = J48Service::with_policy(policy).expect("service");
    s.invoke(
        "classify",
        &[
            ("dataset".to_string(), SoapValue::Text(big_arff.to_string())),
            ("attribute".to_string(), SoapValue::Text("class".into())),
            (
                "options".to_string(),
                SoapValue::Text("-M 1 -U true".into()),
            ),
        ],
    )
    .expect("training");
    s
}

fn predict_args(probe_arff: &str) -> Vec<(String, SoapValue)> {
    vec![
        (
            "dataset".to_string(),
            SoapValue::Text(probe_arff.to_string()),
        ),
        ("attribute".to_string(), SoapValue::Text("class".into())),
    ]
}

fn headline_table() {
    banner(
        "E4 / §4.5",
        "interactive session: repeated small requests against a large trained model",
    );
    for &rows in &[2_000usize, 10_000, 40_000] {
        let (big_arff, probe_arff) = big_and_probe(rows);
        // Model state size for context.
        {
            use dm_algorithms::classifiers::Classifier;
            use dm_algorithms::options::Configurable;
            use dm_algorithms::state::Stateful;
            let mut ds = dm_data::arff::parse_arff(&big_arff).expect("parse");
            ds.set_class_by_name("class").expect("class");
            let mut model = dm_algorithms::classifiers::J48::new();
            model.set_option("-M", "1").expect("option");
            model.set_option("-U", "true").expect("option");
            model.train(&ds).expect("training");
            println!(
                "\ntraining rows: {rows}; serialised model state: {} KiB",
                model.encode_state().len() / 1024
            );
        }
        let per_call = trained_service(LifecyclePolicy::SerializePerCall, &big_arff);
        let harness = trained_service(LifecyclePolicy::InMemoryHarness, &big_arff);
        let args = predict_args(&probe_arff);
        println!(
            "{:>6} {:>22} {:>22} {:>8}",
            "calls", "serialize-per-call", "in-memory harness", "ratio"
        );
        for &n in &[1usize, 4, 16, 64] {
            let t0 = Instant::now();
            for _ in 0..n {
                per_call.invoke("predict", &args).expect("invoke");
            }
            let t_per_call = t0.elapsed();
            let t1 = Instant::now();
            for _ in 0..n {
                harness.invoke("predict", &args).expect("invoke");
            }
            let t_harness = t1.elapsed();
            println!(
                "{n:>6} {:>20.3?} {:>20.3?} {:>7.2}x",
                t_per_call,
                t_harness,
                t_per_call.as_secs_f64() / t_harness.as_secs_f64().max(1e-12)
            );
        }
        let (ser, de, hits) = per_call.lifecycle_stats();
        println!(
            "per-call counters: {ser} serialisations, {de} restores (harness: 0/0, {hits_h} hits)",
            hits_h = harness.lifecycle_stats().2
        );
        let _ = hits;
    }
}

fn bench(c: &mut Criterion) {
    headline_table();

    let (big_arff, probe_arff) = big_and_probe(10_000);
    let mut group = c.benchmark_group("e4_lifecycle");
    // The paper's scenario: small request, big state.
    for (label, policy) in [
        ("serialize_per_call", LifecyclePolicy::SerializePerCall),
        ("in_memory_harness", LifecyclePolicy::InMemoryHarness),
    ] {
        let s = trained_service(policy, &big_arff);
        let args = predict_args(&probe_arff);
        group.bench_with_input(BenchmarkId::new("predict_big_model", label), &s, |b, s| {
            b.iter(|| s.invoke("predict", black_box(&args)).expect("invoke"))
        });
    }
    // The classify control: training on never-seen text, where the gap
    // should be small, and the kept tree, where the lifecycle is all
    // that is left.
    for (label, policy) in [
        ("serialize_per_call", LifecyclePolicy::SerializePerCall),
        ("in_memory_harness", LifecyclePolicy::InMemoryHarness),
    ] {
        let s = J48Service::with_policy(policy).expect("service");
        let args = j48_classify_args();
        s.invoke("classify", &args).expect("warm-up");
        let mut cold = args.clone();
        let mut n = 0u64;
        group.bench_with_input(
            BenchmarkId::new("classify_breast_cancer_cold", label),
            &s,
            |b, s| {
                b.iter(|| {
                    n += 1;
                    cold[0].1 = SoapValue::Text(format!("% {n}\n{}", breast_cancer_arff()));
                    s.invoke("classify", black_box(&cold)).expect("invoke")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("classify_breast_cancer_warm", label),
            &s,
            |b, s| b.iter(|| s.invoke("classify", black_box(&args)).expect("invoke")),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
