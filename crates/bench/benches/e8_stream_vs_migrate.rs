//! E8 — §3's streaming requirement: stream records from a remote
//! source and process incrementally versus migrating the whole dataset
//! first. Expected shape: streaming amortises transfer and wins on
//! time-to-first-result and on early-exit consumers; migration pays the
//! whole transfer up front.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_bench::banner;
use dm_data::stream::{chunk_dataset, record_stream, RunningStats};
use dm_data::Dataset;
use dm_wsrf::transport::NetworkConfig;
use std::hint::black_box;
use std::time::Duration;

fn dataset(rows: usize) -> Dataset {
    dm_data::corpus::nominal_classification(rows, 8, 4, 2, 0.1, 7)
}

fn virtual_costs() {
    banner("E8 / §3", "streaming vs whole-dataset migration");
    let cfg = NetworkConfig::default();
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>18}",
        "rows", "chunk", "stream total", "first result", "migrate up-front"
    );
    for &rows in &[286usize, 10_000, 100_000] {
        let ds = dataset(rows);
        for &chunk in &[16usize, 256] {
            let batches = chunk_dataset(&ds, chunk).expect("chunking");
            let stream_total: Duration = batches
                .iter()
                .map(|b| cfg.transmit_time(b.byte_len()))
                .sum();
            let first = cfg.transmit_time(batches[0].byte_len());
            let migrate = cfg.transmit_time(dm_data::arff::write_arff(&ds).len());
            println!("{rows:>8} {chunk:>10} {stream_total:>16.3?} {first:>16.3?} {migrate:>18.3?}");
        }
    }
    println!("\n(shape: time-to-first-result under streaming ≈ one chunk; migration pays");
    println!(" the full transfer before any processing can begin)");
}

fn bench(c: &mut Criterion) {
    virtual_costs();
    let mut group = c.benchmark_group("e8_stream_vs_migrate");
    for &rows in &[10_000usize, 50_000] {
        let ds = dataset(rows);
        group.bench_with_input(
            BenchmarkId::new("stream_fold_running_stats", rows),
            &ds,
            |b, ds| {
                b.iter(|| {
                    let (tx, rx) = record_stream(ds, 8);
                    let src = ds.clone();
                    let producer =
                        std::thread::spawn(move || tx.send_dataset(&src, 256).expect("send"));
                    let stats = rx
                        .fold(RunningStats::new(ds.num_attributes()), |mut s, b| {
                            s.update(b);
                            s
                        })
                        .expect("fold");
                    producer.join().expect("producer");
                    black_box(stats)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("migrate_then_process", rows),
            &ds,
            |b, ds| {
                b.iter(|| {
                    let (tx, rx) = record_stream(ds, 8);
                    let src = ds.clone();
                    let producer =
                        std::thread::spawn(move || tx.send_dataset(&src, 256).expect("send"));
                    let whole = rx.collect().expect("collect");
                    producer.join().expect("producer");
                    let mut stats = RunningStats::new(whole.num_attributes());
                    for batch in chunk_dataset(&whole, whole.num_instances()).expect("chunk") {
                        stats.update(&batch);
                    }
                    black_box(stats)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
