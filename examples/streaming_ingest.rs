//! E18 walkthrough: continuous ingest into a long-lived model-serving
//! service. A producer streams columnar chunks to the `DataStream`
//! service under a bounded in-flight window while a consumer keeps
//! asking the *same* live model to classify fresh instances — the
//! paper's "streaming of data from a remote machine … processed
//! locally" requirement, upgraded from a one-shot fold to a standing
//! data plane.
//!
//! Run with `cargo run --example streaming_ingest`.

#![forbid(unsafe_code)]

use dm_data::corpus::nominal_classification;
use dm_data::stream::{chunk_dataset, StreamHeader};
use dm_services::client::StreamClient;
use dm_services::deploy::deploy_faehim_suite;
use dm_wsrf::transport::{DataPlaneConfig, Network};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let net = Arc::new(Network::new());
    let host = net.add_host("miner");
    deploy_faehim_suite(&host).expect("deploy");
    net.enable_data_plane(DataPlaneConfig::default());

    // A drifting-free planted-dependency corpus: class = f(a0, a1).
    let ds = nominal_classification(4_000, 4, 3, 2, 0.1, 41);
    let probe = ds.select_rows(&(0..8).collect::<Vec<_>>());
    let probe_arff = dm_data::arff::write_arff(&probe);

    println!("=== Open a HoeffdingTree ingest stream ===");
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "HoeffdingTree", "", 4, Duration::from_micros(500))
        .expect("openStream");
    println!("stream id: {id}  (window 4 chunks, 500µs/row virtual cost)");

    println!("\n=== Interleave ingest with live classification ===");
    for (seq, batch) in chunk_dataset(&ds, 256).expect("chunk").iter().enumerate() {
        let ack = client
            .send_chunk(&id, seq as u64, batch)
            .expect("sendChunk");
        if seq % 4 == 3 {
            // Query the model mid-stream: serving never blocks ingest.
            let labels = client
                .classify_instances(&id, &probe_arff)
                .expect("classify");
            println!(
                "after {:>4} rows: backlog {} chunks, staleness {:>9?}, probe -> {:?}",
                ack.rows_total,
                ack.backlog_chunks,
                ack.staleness,
                &labels[..4]
            );
        }
    }
    client.close_stream(&id).expect("closeStream");

    println!("\n=== Final model and stream accounting ===");
    println!("{}", client.model_description(&id).expect("describe"));
    let stats = client.stream_stats(&id).expect("stats");
    println!(
        "chunks {}  rows {}  busy rejections {}  peak resident rows {}",
        stats.chunks, stats.rows, stats.busy_rejections, stats.peak_resident_rows
    );
    let wire = net.wire_stats();
    println!(
        "wire: {} envelopes, {} bytes, {} ref substitutions ({} bytes saved)",
        wire.envelopes, wire.bytes, wire.ref_substitutions, wire.bytes_saved
    );

    // The streamed model is byte-identical to migrate-then-train.
    use dm_algorithms::classifiers::{Classifier, HoeffdingTree};
    use dm_algorithms::state::Stateful;
    let mut local = HoeffdingTree::new();
    local.train(&ds).expect("train");
    let identical = client.model_state(&id).expect("state") == local.encode_state();
    println!("\nstreamed model == migrate-then-train model: {identical}");
    assert!(identical);
}
