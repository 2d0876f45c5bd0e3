//! E18 — the streaming data plane across the simulated transport:
//! streamed-fold model equivalence, bounded-window back-pressure,
//! chunk-level pass-by-reference dedup, wire-cost agreement with
//! `RecordBatch::byte_len`, and the record-stream concurrency
//! contracts (blocking producer, receiver-drop errors).

#![forbid(unsafe_code)]

use dm_data::corpus::{gaussian_blobs, nominal_classification, BlobSpec};
use dm_data::stream::{chunk_dataset, record_stream, RecordBatch, StreamHeader};
use dm_data::DataError;
use dm_services::client::StreamClient;
use dm_services::deploy::deploy_faehim_suite;
use dm_wsrf::error::WsError;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::{DataPlaneConfig, Network};
use std::sync::Arc;
use std::time::Duration;

fn network() -> Arc<Network> {
    let net = Arc::new(Network::new());
    let host = net.add_host("miner");
    deploy_faehim_suite(&host).unwrap();
    net
}

fn blobs(n: usize) -> dm_data::Dataset {
    gaussian_blobs(
        &[
            BlobSpec {
                center: vec![0.0, 0.0, 0.0],
                stddev: 0.4,
                count: n / 2,
            },
            BlobSpec {
                center: vec![8.0, 8.0, 8.0],
                stddev: 0.4,
                count: n - n / 2,
            },
        ],
        11,
    )
}

/// Tentpole acceptance: training over the streaming data plane yields a
/// model byte-identical to migrating the dataset and training locally —
/// for both online learners.
#[test]
fn streamed_fold_equals_migrate_then_train_over_transport() {
    use dm_algorithms::classifiers::{Classifier, HoeffdingTree};
    use dm_algorithms::cluster::{Clusterer, IncrementalKMeans};
    use dm_algorithms::options::Configurable;
    use dm_algorithms::state::Stateful;

    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");

    let nominal = nominal_classification(500, 4, 3, 2, 0.1, 5);
    let (id, _) = client
        .send_dataset(&nominal, 64, "HoeffdingTree", "", 8, Duration::ZERO)
        .unwrap();
    let mut local = HoeffdingTree::new();
    local.train(&nominal).unwrap();
    assert_eq!(client.model_state(&id).unwrap(), local.encode_state());

    let numeric = blobs(300);
    let (id, _) = client
        .send_dataset(&numeric, 64, "IncrementalKMeans", "-N 2", 8, Duration::ZERO)
        .unwrap();
    let mut km = IncrementalKMeans::new();
    km.set_option("-N", "2").unwrap();
    km.build(&numeric).unwrap();
    assert_eq!(client.model_state(&id).unwrap(), km.encode_state());

    // The live model serves assignments over the same transport.
    let assignments = client
        .assign_clusters(&id, &dm_data::arff::write_arff(&numeric))
        .unwrap();
    assert_eq!(assignments.len(), 300);
    let flips = assignments.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(flips, 1, "two well-separated blobs should split cleanly");
}

/// Satellite: the bounded in-flight window sheds with a retry hint and
/// the client's virtual-clock retry drains it — no chunk is lost and
/// the backlog never exceeds the window.
#[test]
fn bounded_window_backpressure_over_transport() {
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let ds = nominal_classification(300, 4, 3, 2, 0.1, 5);
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "RunningStats", "", 3, Duration::from_millis(4))
        .unwrap();
    for (seq, batch) in chunk_dataset(&ds, 25).unwrap().iter().enumerate() {
        let ack = client.send_chunk(&id, seq as u64, batch).unwrap();
        assert!(ack.backlog_chunks <= 3, "window overflowed");
    }
    let stats = client.stream_stats(&id).unwrap();
    assert_eq!(stats.rows, 300);
    assert_eq!(stats.chunks, 12);
    assert!(stats.busy_rejections > 0, "back-pressure never engaged");
    assert!(stats.peak_resident_rows <= 25);
    client.close_stream(&id).unwrap();
}

/// Satellite: `sendChunk` after `closeStream` faults as a Client error
/// across the transport instead of corrupting the sealed model.
#[test]
fn send_after_close_faults_over_transport() {
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let ds = nominal_classification(60, 4, 3, 2, 0.1, 5);
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "RunningStats", "", 8, Duration::ZERO)
        .unwrap();
    let batches = chunk_dataset(&ds, 20).unwrap();
    client.send_chunk(&id, 0, &batches[0]).unwrap();
    client.close_stream(&id).unwrap();
    let err = client.send_chunk(&id, 1, &batches[1]).unwrap_err();
    match err {
        WsError::Fault { code, message } => {
            assert_eq!(code, "Client");
            assert!(message.contains("closed"), "{message}");
        }
        other => panic!("expected fault, got {other:?}"),
    }
    // Closing twice is also a client error.
    assert!(client.close_stream(&id).is_err());
}

/// Satellite: a ragged batch is rejected at receive time with a typed
/// fault (this is the crash the seed's NaN-sentinel stream panicked on).
#[test]
fn ragged_batch_faults_over_transport() {
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let ds = blobs(40);
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "RunningStats", "", 8, Duration::ZERO)
        .unwrap();
    // A chunk whose schema disagrees with the stream header.
    let skinny = nominal_classification(10, 2, 2, 2, 0.0, 3);
    let err = client
        .send_chunk(&id, 0, &RecordBatch::from_rows(&skinny, 0..10))
        .unwrap_err();
    assert!(matches!(err, WsError::Fault { code, .. } if code == "Client"));
    // Locally-built ragged batches are caught by validation too.
    let mut ragged = RecordBatch::from_rows(&ds, 0..10);
    ragged.weights.truncate(4);
    match ragged.validate(&header).unwrap_err() {
        DataError::RaggedBatch { len, expected, .. } => {
            assert_eq!((len, expected), (4, 10));
        }
        other => panic!("expected RaggedBatch, got {other:?}"),
    }
}

/// Satellite: re-sending an identical chunk travels as a `DataRef`
/// handle once the data plane has seen it — chunk-level dedup on the
/// attachment store.
#[test]
fn repeated_chunks_pass_by_reference() {
    let net = network();
    net.enable_data_plane(DataPlaneConfig::default());
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let ds = blobs(400);
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "RunningStats", "", 8, Duration::ZERO)
        .unwrap();
    // One chunk of 400 rows × 3 numeric attrs + class ≈ 11 KB — far
    // over the 1 KB inline threshold.
    let batch = &chunk_dataset(&ds, 400).unwrap()[0];
    assert!(batch.byte_len() > 1024);
    client.send_chunk(&id, 0, batch).unwrap();
    let before = net.wire_stats();
    // Duplicate delivery (an at-least-once retry): same bytes, so the
    // transport substitutes a handle instead of re-shipping the chunk.
    client.send_chunk(&id, 0, batch).unwrap();
    let after = net.wire_stats();
    assert_eq!(
        after.ref_substitutions,
        before.ref_substitutions + 1,
        "duplicate chunk did not pass by reference"
    );
    assert!(
        after.bytes_saved >= before.bytes_saved + batch.byte_len() as u64 / 2,
        "no meaningful wire savings: {} -> {}",
        before.bytes_saved,
        after.bytes_saved
    );
    // The duplicate was acked idempotently, not re-absorbed.
    assert_eq!(client.stream_stats(&id).unwrap().rows, 400);
}

/// Satellite: `RecordBatch::byte_len` agrees with what the transport
/// actually charges — the envelope for `sendChunk` costs at least the
/// batch's exact serialised size, and the host monitor sees it.
#[test]
fn byte_len_agrees_with_transport_cost() {
    let net = network();
    let client = StreamClient::new(Arc::clone(&net), "miner");
    let ds = blobs(200);
    let header = StreamHeader::of(&ds);
    let id = client
        .open_stream(&header, "RunningStats", "", 8, Duration::ZERO)
        .unwrap();
    let batch = &chunk_dataset(&ds, 200).unwrap()[0];
    assert_eq!(batch.to_bytes().len(), batch.byte_len());
    net.reset_wire_stats();
    client.send_chunk(&id, 0, batch).unwrap();
    let wire = net.wire_stats();
    assert!(
        wire.bytes >= batch.byte_len() as u64,
        "wire charged {} bytes for a {}-byte chunk",
        wire.bytes,
        batch.byte_len()
    );
    // The network's monitor accounts the same request.
    let summaries = net.monitor().summary_by_operation(Some("DataStream"));
    let send = summaries
        .iter()
        .find(|s| s.operation == "sendChunk")
        .expect("sendChunk summary");
    assert_eq!(send.invocations, 1);
    assert!(send.bytes_in >= batch.byte_len());
}

/// Satellite: a producer thread blocks when the bounded record stream
/// is full and completes once the consumer drains — no deadlock, no
/// loss, chunks arrive in order.
#[test]
fn bounded_stream_blocks_producer_until_drained() {
    let ds = blobs(640);
    let batches = chunk_dataset(&ds, 64).unwrap();
    let total = batches.len();
    let (tx, rx) = record_stream(&ds, 2);
    let producer = std::thread::spawn(move || {
        for b in batches {
            tx.send(b).unwrap();
        }
    });
    // The producer cannot finish until we drain: with capacity 2 and 10
    // chunks it must block. Drain slowly and count arrivals.
    let mut seen = 0;
    let mut rows = 0;
    while let Some(batch) = rx.recv() {
        batch.validate(rx.header()).unwrap();
        seen += 1;
        rows += batch.num_rows();
    }
    producer.join().expect("producer thread panicked");
    assert_eq!(seen, total);
    assert_eq!(rows, 640);
}

/// Satellite: dropping the receiver mid-stream turns the producer's
/// next `send` into `DataError::StreamClosed` — a clean error, not a
/// hang or panic, even with the producer already blocked on a full
/// channel in another thread.
#[test]
fn send_after_receiver_drop_errors_across_threads() {
    let ds = blobs(640);
    let batches = chunk_dataset(&ds, 64).unwrap();
    let (tx, rx) = record_stream(&ds, 1);
    let producer = std::thread::spawn(move || {
        let mut sent = 0usize;
        for b in batches {
            match tx.send(b) {
                Ok(()) => sent += 1,
                Err(DataError::StreamClosed) => return Err(sent),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        Ok(sent)
    });
    // Take one chunk, then hang up while the producer is mid-stream.
    let first = rx.recv().expect("first chunk");
    assert_eq!(first.num_rows(), 64);
    drop(rx);
    match producer.join().expect("producer thread panicked") {
        Err(sent) => assert!(sent < 10, "producer should have been cut off"),
        Ok(sent) => panic!("producer sent all {sent} chunks past a dropped receiver"),
    }
}

/// The imported WS-tool view of the new service: `DataStream` operations
/// are imported as workflow tools and are correctly marked impure.
#[test]
fn datastream_tools_import_as_impure() {
    let net = network();
    let host = net.host("miner").unwrap();
    let wsdl = host.wsdl_of("DataStream").unwrap();
    assert_eq!(wsdl.operations.len(), 7);
    for op in &wsdl.operations {
        assert!(
            !dm_services::is_pure_operation("DataStream", &op.name),
            "{} must not be memoised",
            op.name
        );
    }
    // Faults surface as WsError::Fault through the raw network path too.
    let err = net
        .invoke(
            "miner",
            "DataStream",
            "sendChunk",
            vec![("streamId".into(), SoapValue::Text("nope".into()))],
        )
        .unwrap_err();
    assert!(matches!(err, WsError::Fault { code, .. } if code == "Client"));
}

/// A 20-byte `FSH1` header claiming `u64::MAX` attributes is a Client
/// fault, recorded once, and leaves the host with no call outstanding.
#[test]
fn hostile_stream_header_returns_a_client_fault() {
    let net = network();
    let mut header = b"FSH1".to_vec();
    header.extend_from_slice(&0u64.to_le_bytes());
    header.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(header.len(), 20);
    let args = vec![
        ("header".to_string(), SoapValue::Bytes(header)),
        (
            "learner".to_string(),
            SoapValue::Text("HoeffdingTree".into()),
        ),
        ("options".to_string(), SoapValue::Text(String::new())),
        ("window".to_string(), SoapValue::Int(4)),
        ("rowNanos".to_string(), SoapValue::Int(0)),
    ];
    match net.invoke("miner", "DataStream", "openStream", args) {
        Err(WsError::Fault { code, message }) => {
            assert_eq!(code, "Client", "{message}");
            assert!(message.contains("exceeds frame size"), "{message}");
        }
        other => panic!("expected a Client fault, got {other:?}"),
    }
    assert_eq!(net.monitor().len(), 1);
}
