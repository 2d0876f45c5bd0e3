//! E18 — the streaming data plane end to end: continuous columnar
//! ingest into a long-lived online model versus migrate-then-train.
//!
//! Four questions, all over the simulated transport:
//!
//! * **Equivalence** — is the streamed-fold model byte-identical to
//!   migrating the dataset and training locally? (Asserted, and
//!   re-asserted under compute-pool widths 1 and 4.)
//! * **Freshness vs window** — how does the bounded in-flight window
//!   trade model staleness against busy rejections on the virtual
//!   clock?
//! * **Wire accounting** — what does a chunk cost on the wire
//!   (`RecordBatch::byte_len` vs envelope bytes), and how much does the
//!   attachment-store dedup save when chunks are retransmitted?
//! * **Bounded memory** — the service's peak resident rows must stay at
//!   one chunk regardless of stream length.
//!
//! `FAEHIM_E18_SMOKE=1` shrinks the workload for CI smoke runs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_algorithms::classifiers::{Classifier, HoeffdingTree};
use dm_algorithms::pool;
use dm_algorithms::state::Stateful;
use dm_bench::banner;
use dm_data::corpus::nominal_classification;
use dm_data::stream::{chunk_dataset, StreamHeader};
use dm_data::Dataset;
use dm_services::client::StreamClient;
use dm_services::deploy::deploy_faehim_suite;
use dm_wsrf::transport::{DataPlaneConfig, Network};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNK_ROWS: usize = 256;
const ROW_COST: Duration = Duration::from_micros(250);

fn smoke() -> bool {
    std::env::var("FAEHIM_E18_SMOKE").is_ok()
}

fn rows() -> usize {
    if smoke() {
        1_536
    } else {
        8_192
    }
}

fn corpus() -> Dataset {
    nominal_classification(rows(), 4, 3, 2, 0.1, 41)
}

fn network() -> Arc<Network> {
    let net = Arc::new(Network::new());
    let host = net.add_host("miner");
    deploy_faehim_suite(&host).expect("deploy");
    net
}

/// Outcome of one full ingest run.
struct RunReport {
    state: Vec<u8>,
    virtual_elapsed: Duration,
    mean_staleness: Duration,
    busy_rejections: u64,
    peak_resident_rows: u64,
    wire_bytes: u64,
    envelopes: u64,
    chunks: u64,
    real_secs: f64,
}

/// Stream `ds` into a fresh network with the given window, returning
/// the model state plus freshness and wire accounting.
fn run_stream(ds: &Dataset, chunk_rows: usize, window: u64) -> RunReport {
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let header = StreamHeader::of(ds);
    let start_virtual = net.now();
    let started = Instant::now();
    let id = client
        .open_stream(&header, "HoeffdingTree", "", window, ROW_COST)
        .expect("openStream");
    net.reset_wire_stats();
    let batches = chunk_dataset(ds, chunk_rows).expect("chunk");
    let mut staleness_sum = Duration::ZERO;
    for (seq, batch) in batches.iter().enumerate() {
        let ack = client
            .send_chunk(&id, seq as u64, batch)
            .expect("sendChunk");
        staleness_sum += ack.staleness;
    }
    let wire = net.wire_stats();
    client.close_stream(&id).expect("closeStream");
    let stats = client.stream_stats(&id).expect("stats");
    RunReport {
        state: client.model_state(&id).expect("state"),
        virtual_elapsed: net.now() - start_virtual,
        mean_staleness: staleness_sum / batches.len() as u32,
        busy_rejections: stats.busy_rejections,
        peak_resident_rows: stats.peak_resident_rows,
        wire_bytes: wire.bytes,
        envelopes: wire.envelopes,
        chunks: stats.chunks,
        real_secs: started.elapsed().as_secs_f64(),
    }
}

fn bench(c: &mut Criterion) {
    banner(
        "E18",
        "streaming data plane: incremental ingest vs migrate-then-train",
    );
    let ds = corpus();
    println!(
        "mode: {} ({} rows, chunk {} rows, {:?}/row virtual cost)",
        if smoke() { "smoke" } else { "full" },
        ds.num_instances(),
        CHUNK_ROWS,
        ROW_COST
    );

    // --- Equivalence: streamed fold == migrate-then-train. -----------
    let mut local = HoeffdingTree::new();
    local.train(&ds).expect("train");
    let migrate = run_stream(&ds, ds.num_instances(), 1);
    let streamed = run_stream(&ds, CHUNK_ROWS, 4);
    assert_eq!(
        streamed.state,
        local.encode_state(),
        "streamed fold diverged from local train"
    );
    assert_eq!(
        migrate.state,
        local.encode_state(),
        "single-chunk migrate diverged from local train"
    );

    // Determinism under the compute pool: byte-identical at widths 1, 4.
    for width in [1usize, 4] {
        let state = pool::with_threads(width, || run_stream(&ds, CHUNK_ROWS, 4).state);
        assert_eq!(
            state, streamed.state,
            "pool width {width} changed the model"
        );
    }
    println!("cross-check: streamed == migrate == local train (pool widths 1, 4)");

    let per_chunk = |r: &RunReport| r.wire_bytes as f64 / r.chunks.max(1) as f64;
    println!(
        "\nmigrate-then-train (1 chunk of {} rows):",
        ds.num_instances()
    );
    println!(
        "  wire {} B over {} envelopes; peak resident {} rows; virtual {:?}; real {:.1} ms",
        migrate.wire_bytes,
        migrate.envelopes,
        migrate.peak_resident_rows,
        migrate.virtual_elapsed,
        migrate.real_secs * 1e3,
    );
    println!("streamed fold ({} chunks, window 4):", streamed.chunks);
    println!(
        "  wire {} B over {} envelopes ({:.0} B/chunk); peak resident {} rows; virtual {:?}; real {:.1} ms",
        streamed.wire_bytes,
        streamed.envelopes,
        per_chunk(&streamed),
        streamed.peak_resident_rows,
        streamed.virtual_elapsed,
        streamed.real_secs * 1e3,
    );
    println!(
        "  mean staleness {:?}; busy rejections {}",
        streamed.mean_staleness, streamed.busy_rejections
    );
    assert!(
        streamed.peak_resident_rows <= CHUNK_ROWS as u64,
        "streaming must hold at most one chunk resident"
    );
    assert!(
        migrate.peak_resident_rows >= ds.num_instances() as u64,
        "migrate path should materialise the whole dataset"
    );

    // --- Freshness vs in-flight window. -------------------------------
    println!("\nfreshness vs window (chunk {CHUNK_ROWS} rows):");
    println!("  window | mean staleness | busy rejections | virtual elapsed");
    for window in [1u64, 2, 4, 8] {
        let r = run_stream(&ds, CHUNK_ROWS, window);
        assert_eq!(r.state, streamed.state, "window {window} changed the model");
        println!(
            "  {:>6} | {:>14?} | {:>15} | {:?}",
            window, r.mean_staleness, r.busy_rejections, r.virtual_elapsed
        );
    }

    // --- Chunk retransmission dedup on the data plane. ----------------
    let net = network();
    net.enable_data_plane(DataPlaneConfig::default());
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let header = StreamHeader::of(&ds);
    let batches = chunk_dataset(&ds, CHUNK_ROWS).expect("chunk");
    let id = client
        .open_stream(&header, "RunningStats", "", 64, Duration::ZERO)
        .expect("open");
    for (seq, batch) in batches.iter().enumerate() {
        client.send_chunk(&id, seq as u64, batch).expect("send");
    }
    let before = net.wire_stats();
    // At-least-once redelivery of every chunk: all pass by reference.
    for (seq, batch) in batches.iter().enumerate() {
        client.send_chunk(&id, seq as u64, batch).expect("resend");
    }
    let after = net.wire_stats();
    let resubs = after.ref_substitutions - before.ref_substitutions;
    let saved = after.bytes_saved - before.bytes_saved;
    println!(
        "\nretransmission dedup: {} of {} duplicate chunks passed by reference, {} B saved",
        resubs,
        batches.len(),
        saved
    );
    assert_eq!(resubs, batches.len() as u64, "all duplicates should dedup");

    // --- Criterion: per-chunk ingest round-trip over the transport. ---
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let id = client
        .open_stream(&header, "HoeffdingTree", "", u64::MAX >> 1, Duration::ZERO)
        .expect("open");
    let batch = &batches[0];
    let mut seq = 0u64;
    let mut group = c.benchmark_group("e18_streaming");
    group.bench_function("send_chunk_256_rows", |b| {
        b.iter(|| {
            let ack = client.send_chunk(&id, seq, batch).expect("send");
            seq += 1;
            ack.rows_total
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
