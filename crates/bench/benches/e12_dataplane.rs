//! E12 — the content-addressed data plane: cold versus warm
//! re-enactment of the §5 case study with pass-by-reference payloads,
//! the trained-model cache, and memoised pure tasks. After the
//! wire-traffic tables it prints the median wall time of the content
//! digest on the inputs the workloads hash.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::{banner, breast_cancer_arff, case_study_responses, median_nanos};
use dm_services::dataset_cache::content_hash;
use dm_services::model_cache::model_key;
use dm_workflow::engine::Executor;
use dm_workflow::memo::MemoCache;
use dm_wsrf::dataplane::{content_ref, fingerprint, hash_bytes};
use dm_wsrf::soap::SoapValue;
use faehim::casestudy::run_case_study_with;
use faehim::Toolkit;
use std::hint::black_box;
use std::sync::Arc;

/// Print one digest-table row: the median time of `digest`.
fn row(input: &str, bytes: usize, digest: impl FnMut()) {
    let nanos = median_nanos(digest);
    println!(
        "  {input:<34} {bytes:>7} {nanos:>10.1} {:>7.2}",
        nanos / bytes as f64
    );
}

/// Median cost of the content digest on the inputs the workloads hash:
/// short keys, the 16 KiB payload each planned-chain leg addresses, the
/// case-study dataset, the 286-label `classifyInstances` list the memo
/// cache fingerprints, and a trained-model cache key. `bytes` counts
/// what the digest absorbs, framing (kind tags, length prefixes)
/// included.
fn digest_table() {
    let payload: String = (0..1024u64)
        .map(|k| format!("{:016x}", k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let payload = SoapValue::Text(payload);
    let arff = breast_cancer_arff();
    let (_, predictions) = case_study_responses();
    let labels = predictions.as_list().expect("a label list");
    let dataset = content_hash(arff);
    let key_bytes = 3 * 8 + "J48".len() + "Class".len() + 16;
    let list_bytes = 9 + labels
        .iter()
        .map(|l| 9 + l.as_text().expect("a label").len())
        .sum::<usize>();
    let short: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();

    println!("content digest, median per input:");
    println!(
        "  {:<34} {:>7} {:>10} {:>7}",
        "input", "bytes", "ns", "ns/B"
    );
    for (input, n) in [
        ("hash_bytes, 16 B", 16),
        ("hash_bytes, 64 B", 64),
        ("hash_bytes, 1 KiB", 1024),
    ] {
        row(input, n, || {
            black_box(hash_bytes(black_box(&short[..n])));
        });
    }
    row("content_ref, 16 KiB payload", 1 + 16 * 1024, || {
        black_box(content_ref(black_box(&payload)));
    });
    row("content_hash, breast-cancer ARFF", 1 + arff.len(), || {
        black_box(content_hash(black_box(arff)));
    });
    row("fingerprint, 286 labels", list_bytes, || {
        black_box(fingerprint(black_box(&predictions)));
    });
    row("model_key", key_bytes, || {
        black_box(model_key("J48", "", "Class", black_box(dataset)));
    });
}

fn bench(c: &mut Criterion) {
    banner(
        "E12",
        "content-addressed data plane (pass-by-reference + model cache + memoised enactment)",
    );

    let toolkit = Toolkit::new().expect("toolkit");
    toolkit.enable_data_plane();
    let net = toolkit.network();
    let executor = Executor::serial().with_memoisation(Arc::new(MemoCache::new(64)));

    net.reset_wire_stats();
    let cold_start = net.now();
    let cold = run_case_study_with(&toolkit, &executor).expect("cold run");
    let cold_time = net.now() - cold_start;
    let cold_wire = net.wire_stats();

    net.reset_wire_stats();
    let warm_start = net.now();
    let warm = run_case_study_with(&toolkit, &executor).expect("warm run");
    let warm_time = net.now() - warm_start;
    let warm_wire = net.wire_stats();
    assert_eq!(cold.model_text, warm.model_text, "outputs must not change");

    println!("wire traffic, one case-study enactment:");
    println!(
        "  cold: {} envelopes, {} bytes, {:?} simulated network time",
        cold_wire.envelopes, cold_wire.bytes, cold_time
    );
    println!(
        "  warm: {} envelopes, {} bytes, {:?} simulated network time",
        warm_wire.envelopes, warm_wire.bytes, warm_time
    );
    println!(
        "  warm refs: {} substitutions, {} bytes saved, {} memo hits",
        warm_wire.ref_substitutions,
        warm_wire.bytes_saved,
        warm.report.memo_hits()
    );
    println!(
        "  ratios: {:.1}x fewer bytes, {:.1}x less network time",
        cold_wire.bytes as f64 / warm_wire.bytes.max(1) as f64,
        cold_time.as_nanos() as f64 / warm_time.as_nanos().max(1) as f64
    );

    // The E4 workload under the data plane: ten repeated
    // `classifyInstance` calls on the same dataset. The first call
    // ships the ARFF and trains; the rest travel by handle and hit the
    // trained-model cache.
    let e4_toolkit = Toolkit::new().expect("toolkit");
    e4_toolkit.enable_data_plane();
    let e4_net = e4_toolkit.network();
    let arff = dm_data::corpus::breast_cancer_arff();
    let classifier = e4_toolkit.classifier_client();
    e4_net.reset_wire_stats();
    let first_start = e4_net.now();
    let first = classifier
        .classify_instance(&arff, "J48", "", "Class")
        .expect("classify");
    let first_time = e4_net.now() - first_start;
    let first_wire = e4_net.wire_stats();
    e4_net.reset_wire_stats();
    let rest_start = e4_net.now();
    for _ in 0..9 {
        let repeat = classifier
            .classify_instance(&arff, "J48", "", "Class")
            .expect("classify");
        assert_eq!(first, repeat);
    }
    let rest_time = (e4_net.now() - rest_start) / 9;
    let rest_wire = e4_net.wire_stats();
    println!("repeated classifyInstance (E4 workload), per call:");
    println!(
        "  first: {} bytes, {:?} network time",
        first_wire.bytes, first_time
    );
    println!(
        "  later: {} bytes, {:?} network time ({:.1}x fewer bytes)",
        rest_wire.bytes / 9,
        rest_time,
        first_wire.bytes as f64 / (rest_wire.bytes as f64 / 9.0)
    );

    digest_table();

    let mut group = c.benchmark_group("e12_dataplane");
    // Cold: everything from scratch, including service provisioning —
    // the paper's pass-by-value baseline.
    group.bench_function("cold_enactment", |b| {
        b.iter(|| {
            let tk = Toolkit::new().expect("toolkit");
            tk.enable_data_plane();
            let exec = Executor::serial().with_memoisation(Arc::new(MemoCache::new(64)));
            run_case_study_with(black_box(&tk), &exec).expect("run")
        })
    });
    // Warm: shared stores + model cache + memo cache.
    group.bench_function("warm_enactment", |b| {
        b.iter(|| run_case_study_with(black_box(&toolkit), &executor).expect("run"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
