//! The streaming-ingest Web Service: the paper's §3 requirement that
//! "the framework should allow the streaming of data from a remote
//! machine along with the capability to process the data locally …
//! when large volumes of data cannot be easily migrated", promoted to
//! first-class SOAP operations.
//!
//! A producer opens a stream with a serialised [`StreamHeader`]
//! (schema + dictionary state) and an online learner name, then pushes
//! columnar [`RecordBatch`] chunks through `sendChunk`. Each chunk is
//! validated against the header at receive time (ragged or
//! out-of-domain chunks, non-finite numeric cells and negative or
//! non-finite weights fault instead of reaching the model), folded into the
//! long-lived model, and discarded — the service never materialises
//! the whole dataset, so resident memory is bounded by one chunk
//! (`streamStats` reports the high-water mark so tests can pin it).
//!
//! Back-pressure rides the virtual clock: the service models a bounded
//! in-flight window of chunks still being absorbed (`window` chunks,
//! each costing `rowNanos` per row of virtual processing time).
//! Because Web Services cannot read the simulated clock, the *caller*
//! timestamps every `sendChunk` with its current virtual time; the
//! service drains completed work up to that instant and sheds the
//! chunk with a retryable `Server` fault carrying `retry_after_nanos=…`
//! when the window is full. The model answers `classifyInstances`
//! (DAME-style long-lived serving) at any moment while ingest
//! continues; `modelState` exposes the learner's exact encoded state so
//! byte-identical streamed-vs-migrate determinism can be asserted over
//! the transport.
//!
//! Chunks travel as `SoapValue::Bytes`, so the PR 2 attachment-store
//! data plane substitutes repeated chunks with `DataRef` handles
//! automatically — re-sent chunks pass by reference, visible in
//! `WireStats::ref_substitutions`.

use crate::dataset_cache::DatasetCache;
use crate::support::{algo_fault, data_fault, int_arg, text_arg, traced_handler};
use dm_algorithms::classifiers::{Classifier, HoeffdingTree};
use dm_algorithms::cluster::{Clusterer, IncrementalKMeans};
use dm_algorithms::options::{parse_options_string, Configurable};
use dm_algorithms::state::Stateful;
use dm_data::stream::{RecordBatch, RunningStats, StreamHeader};
use dm_data::Dataset;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The online model consuming a stream.
enum OnlineModel {
    /// Mini-batch k-means (`cluster_instance` answers).
    KMeans(IncrementalKMeans),
    /// Hoeffding-tree classifier (`classifyInstances` answers labels).
    Hoeffding(HoeffdingTree),
    /// Per-attribute running statistics (no classification).
    Stats(RunningStats),
}

impl OnlineModel {
    fn absorb(&mut self, header: &StreamHeader, batch: &RecordBatch) -> Result<(), ServiceFault> {
        match self {
            // Learners consume the chunk as a small one-chunk dataset —
            // the only materialisation the service ever performs.
            OnlineModel::KMeans(km) => km
                .absorb(&chunk_dataset(header, batch)?)
                .map_err(algo_fault),
            OnlineModel::Hoeffding(ht) => ht
                .absorb(&chunk_dataset(header, batch)?)
                .map_err(algo_fault),
            OnlineModel::Stats(stats) => {
                stats.update(batch);
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> Result<(), ServiceFault> {
        if let OnlineModel::KMeans(km) = self {
            km.flush().map_err(algo_fault)?;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match self {
            OnlineModel::KMeans(km) => km.describe(),
            OnlineModel::Hoeffding(ht) => ht.describe(),
            OnlineModel::Stats(stats) => format!(
                "RunningStats over {} attributes, {} rows",
                stats.mean.len(),
                stats.rows
            ),
        }
    }

    fn state(&self) -> Vec<u8> {
        match self {
            OnlineModel::KMeans(km) => km.encode_state(),
            OnlineModel::Hoeffding(ht) => ht.encode_state(),
            OnlineModel::Stats(stats) => {
                let mut w = dm_algorithms::state::StateWriter::new();
                w.put_f64_slice(&stats.count);
                w.put_f64_slice(&stats.mean);
                w.put_u64(stats.rows as u64);
                w.into_bytes()
            }
        }
    }
}

/// Materialise one chunk as a dataset carrying the stream schema.
fn chunk_dataset(header: &StreamHeader, batch: &RecordBatch) -> Result<Dataset, ServiceFault> {
    let mut ds = header.to_dataset();
    let mut buf = Vec::with_capacity(batch.num_columns());
    for r in 0..batch.num_rows() {
        batch.copy_row_into(r, &mut buf);
        ds.push_row_weighted(buf.clone(), batch.weights[r])
            .map_err(data_fault)?;
    }
    Ok(ds)
}

/// One open stream.
struct StreamSession {
    header: StreamHeader,
    model: OnlineModel,
    /// Bounded in-flight window: chunks admitted but not yet absorbed
    /// at the caller's clock.
    window: usize,
    /// Virtual processing cost per row.
    row_nanos: u64,
    /// Virtual completion deadlines of in-flight chunks.
    inflight: VecDeque<u64>,
    /// Completion deadline of the most recently admitted chunk.
    last_end: u64,
    /// Next expected chunk sequence number.
    next_seq: i64,
    rows: u64,
    chunks: u64,
    busy_rejections: u64,
    /// Most rows materialised at once (must stay ≈ one chunk).
    peak_resident_rows: u64,
    closed: bool,
}

impl StreamSession {
    /// Drop in-flight chunks whose virtual completion time has passed.
    fn drain(&mut self, now_nanos: u64) {
        while self.inflight.front().is_some_and(|&end| end <= now_nanos) {
            self.inflight.pop_front();
        }
    }
}

/// The streaming-ingest Web Service (service name `DataStream`).
pub struct DataStreamService {
    sessions: Mutex<BTreeMap<String, StreamSession>>,
    next_id: Mutex<u64>,
    datasets: DatasetCache,
}

impl Default for DataStreamService {
    fn default() -> Self {
        DataStreamService::new()
    }
}

impl DataStreamService {
    /// Create an empty service.
    pub fn new() -> DataStreamService {
        DataStreamService::with_datasets(DatasetCache::default())
    }

    /// Create an empty service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> DataStreamService {
        DataStreamService {
            sessions: Mutex::new(BTreeMap::new()),
            next_id: Mutex::new(0),
            datasets,
        }
    }

    fn open_stream(&self, args: &[(String, SoapValue)]) -> Result<SoapValue, ServiceFault> {
        let header_bytes = match args.iter().find(|(n, _)| n == "header") {
            Some((_, v)) => v
                .as_bytes()
                .map_err(|e| ServiceFault::client(e.to_string()))?,
            None => return Err(ServiceFault::client("missing argument \"header\"")),
        };
        let header = StreamHeader::from_bytes(header_bytes).map_err(data_fault)?;
        let learner = text_arg(args, "learner")?;
        let options = crate::support::opt_text_arg(args, "options")?.unwrap_or("");
        let window = int_arg(args, "window")?;
        let row_nanos = int_arg(args, "rowNanos")?;
        if window < 1 {
            return Err(ServiceFault::client("window must be >= 1"));
        }
        if row_nanos < 0 {
            return Err(ServiceFault::client("rowNanos must be >= 0"));
        }
        let parsed = parse_options_string(options);
        let model = match learner {
            "IncrementalKMeans" => {
                let mut km = IncrementalKMeans::new();
                for (flag, value) in &parsed {
                    km.set_option(flag, value).map_err(algo_fault)?;
                }
                OnlineModel::KMeans(km)
            }
            "HoeffdingTree" => {
                let mut ht = HoeffdingTree::new();
                for (flag, value) in &parsed {
                    ht.set_option(flag, value).map_err(algo_fault)?;
                }
                OnlineModel::Hoeffding(ht)
            }
            "RunningStats" => OnlineModel::Stats(RunningStats::new(header.num_attributes())),
            other => {
                return Err(ServiceFault::client(format!(
                    "unknown online learner {other:?} (expected IncrementalKMeans, \
                     HoeffdingTree, or RunningStats)"
                )))
            }
        };
        let id = {
            let mut next = self.next_id.lock();
            *next += 1;
            format!("stream-{:04}", *next)
        };
        self.sessions.lock().insert(
            id.clone(),
            StreamSession {
                header,
                model,
                window: window as usize,
                row_nanos: row_nanos as u64,
                inflight: VecDeque::new(),
                last_end: 0,
                next_seq: 0,
                rows: 0,
                chunks: 0,
                busy_rejections: 0,
                peak_resident_rows: 0,
                closed: false,
            },
        );
        Ok(SoapValue::Text(id))
    }

    fn send_chunk(&self, args: &[(String, SoapValue)]) -> Result<SoapValue, ServiceFault> {
        let id = text_arg(args, "streamId")?;
        let seq = int_arg(args, "seq")?;
        let at_nanos = int_arg(args, "atNanos")?.max(0) as u64;
        let chunk_bytes = match args.iter().find(|(n, _)| n == "chunk") {
            Some((_, v)) => v
                .as_bytes()
                .map_err(|e| ServiceFault::client(e.to_string()))?,
            None => return Err(ServiceFault::client("missing argument \"chunk\"")),
        };
        let mut sessions = self.sessions.lock();
        let session = sessions
            .get_mut(id)
            .ok_or_else(|| ServiceFault::client(format!("unknown stream {id:?}")))?;
        if session.closed {
            return Err(ServiceFault::client(format!(
                "stream {id:?} is closed; sendChunk after closeStream"
            )));
        }
        // Duplicate delivery (a retried send whose first copy landed):
        // acknowledge idempotently without re-absorbing.
        if seq < session.next_seq {
            session.drain(at_nanos);
            return Ok(ack(session, at_nanos));
        }
        if seq > session.next_seq {
            return Err(ServiceFault::client(format!(
                "chunk sequence gap: got {seq}, expected {}",
                session.next_seq
            )));
        }
        session.drain(at_nanos);
        // Bounded in-flight window: shed with a retryable fault when
        // the consumer is still absorbing `window` chunks at the
        // caller's clock.
        if session.inflight.len() >= session.window {
            session.busy_rejections += 1;
            let retry_after = session
                .inflight
                .front()
                .map(|&end| end.saturating_sub(at_nanos))
                .unwrap_or(0)
                .max(1);
            return Err(ServiceFault::server(format!(
                "stream window full ({} chunks in flight); retry_after_nanos={retry_after}",
                session.inflight.len()
            )));
        }
        let batch = RecordBatch::from_bytes(chunk_bytes).map_err(data_fault)?;
        // Receive-time hardening: ragged buffers, kind mismatches,
        // out-of-domain codes, non-finite cells and weights that are
        // negative or non-finite fault here, before the model sees a cell.
        batch.validate(&session.header).map_err(data_fault)?;
        let rows = batch.num_rows() as u64;
        let StreamSession { header, model, .. } = &mut *session;
        model.absorb(header, &batch)?;
        session.rows += rows;
        session.chunks += 1;
        session.peak_resident_rows = session.peak_resident_rows.max(rows);
        let start = at_nanos.max(session.last_end);
        let end = start + rows * session.row_nanos;
        session.last_end = end;
        session.inflight.push_back(end);
        session.next_seq += 1;
        Ok(ack(session, at_nanos))
    }

    fn classify(&self, args: &[(String, SoapValue)]) -> Result<SoapValue, ServiceFault> {
        let id = text_arg(args, "streamId")?;
        let arff = text_arg(args, "instances")?;
        let sessions = self.sessions.lock();
        let session = sessions
            .get(id)
            .ok_or_else(|| ServiceFault::client(format!("unknown stream {id:?}")))?;
        let mut ds = Arc::unwrap_or_clone(self.datasets.decode(arff)?);
        ds.set_class_index(session.header.class_index())
            .map_err(data_fault)?;
        match &session.model {
            OnlineModel::Hoeffding(ht) => {
                let class = session
                    .header
                    .class_index()
                    .ok_or_else(|| ServiceFault::server("stream header carries no class"))?;
                let attr = &session.header.attributes()[class];
                let out = (0..ds.num_instances())
                    .map(|r| {
                        let c = ht.predict(&ds, r).map_err(algo_fault)?;
                        Ok(SoapValue::Text(
                            attr.label(c).map_err(data_fault)?.to_string(),
                        ))
                    })
                    .collect::<Result<Vec<_>, ServiceFault>>()?;
                Ok(SoapValue::List(out))
            }
            OnlineModel::KMeans(km) => {
                let out = (0..ds.num_instances())
                    .map(|r| {
                        Ok(SoapValue::Int(
                            km.cluster_instance(&ds, r).map_err(algo_fault)? as i64,
                        ))
                    })
                    .collect::<Result<Vec<_>, ServiceFault>>()?;
                Ok(SoapValue::List(out))
            }
            OnlineModel::Stats(_) => Err(ServiceFault::client(
                "RunningStats streams do not support classifyInstances",
            )),
        }
    }

    fn with_session<T>(
        &self,
        id: &str,
        f: impl FnOnce(&mut StreamSession) -> Result<T, ServiceFault>,
    ) -> Result<T, ServiceFault> {
        let mut sessions = self.sessions.lock();
        let session = sessions
            .get_mut(id)
            .ok_or_else(|| ServiceFault::client(format!("unknown stream {id:?}")))?;
        f(session)
    }
}

/// Build the `sendChunk` acknowledgement list:
/// `[rowsTotal, backlogChunks, stalenessNanos]`.
fn ack(session: &StreamSession, at_nanos: u64) -> SoapValue {
    SoapValue::List(vec![
        SoapValue::Int(session.rows as i64),
        SoapValue::Int(session.inflight.len() as i64),
        SoapValue::Int(session.last_end.saturating_sub(at_nanos) as i64),
    ])
}

impl WebService for DataStreamService {
    fn name(&self) -> &str {
        "DataStream"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("DataStream", "")
            .operation(
                Operation::new(
                    "openStream",
                    vec![
                        Part::new("header", "base64Binary"),
                        Part::new("learner", "string"),
                        Part::new("options", "string"),
                        Part::new("window", "long"),
                        Part::new("rowNanos", "long"),
                    ],
                    Part::new("streamId", "string"),
                )
                .doc("open an ingest stream: schema header, online learner, in-flight window"),
            )
            .operation(
                Operation::new(
                    "sendChunk",
                    vec![
                        Part::new("streamId", "string"),
                        Part::new("seq", "long"),
                        Part::new("atNanos", "long"),
                        Part::new("chunk", "base64Binary"),
                    ],
                    Part::new("ack", "list"),
                )
                .doc("push one columnar chunk; faults with retry_after_nanos when the window is full"),
            )
            .operation(
                Operation::new(
                    "classifyInstances",
                    vec![
                        Part::new("streamId", "string"),
                        Part::new("instances", "string"),
                    ],
                    Part::new("labels", "list"),
                )
                .doc("score ARFF instances against the live model while ingest continues"),
            )
            .operation(
                Operation::new(
                    "modelDescription",
                    vec![Part::new("streamId", "string")],
                    Part::new("description", "string"),
                )
                .doc("textual description of the current model"),
            )
            .operation(
                Operation::new(
                    "modelState",
                    vec![Part::new("streamId", "string")],
                    Part::new("state", "base64Binary"),
                )
                .doc("exact encoded learner state (determinism checks, §4.5 lifecycle)"),
            )
            .operation(
                Operation::new(
                    "streamStats",
                    vec![Part::new("streamId", "string")],
                    Part::new("stats", "list"),
                )
                .doc("[chunks, rows, backlog, busyRejections, peakResidentRows]"),
            )
            .operation(
                Operation::new(
                    "closeStream",
                    vec![Part::new("streamId", "string")],
                    Part::new("ack", "string"),
                )
                .doc("flush the learner's tail buffer and seal the stream"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        traced_handler("DataStream", operation, || match operation {
            "openStream" => self.open_stream(args),
            "sendChunk" => self.send_chunk(args),
            "classifyInstances" => self.classify(args),
            "modelDescription" => {
                let id = text_arg(args, "streamId")?;
                self.with_session(id, |s| Ok(SoapValue::Text(s.model.describe())))
            }
            "modelState" => {
                let id = text_arg(args, "streamId")?;
                self.with_session(id, |s| Ok(SoapValue::Bytes(s.model.state())))
            }
            "streamStats" => {
                let id = text_arg(args, "streamId")?;
                self.with_session(id, |s| {
                    Ok(SoapValue::List(vec![
                        SoapValue::Int(s.chunks as i64),
                        SoapValue::Int(s.rows as i64),
                        SoapValue::Int(s.inflight.len() as i64),
                        SoapValue::Int(s.busy_rejections as i64),
                        SoapValue::Int(s.peak_resident_rows as i64),
                    ]))
                })
            }
            "closeStream" => {
                let id = text_arg(args, "streamId")?;
                self.with_session(id, |s| {
                    if s.closed {
                        return Err(ServiceFault::client(format!(
                            "stream {id:?} is already closed"
                        )));
                    }
                    s.model.flush()?;
                    s.closed = true;
                    Ok(SoapValue::Text("closed".into()))
                })
            }
            other => Err(ServiceFault::client(format!("unknown operation {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::arff::write_arff;
    use dm_data::column::Column;
    use dm_data::corpus::nominal_classification;
    use dm_data::stream::chunk_dataset as chunk;

    fn open(svc: &DataStreamService, ds: &Dataset, learner: &str, window: i64) -> String {
        let header = StreamHeader::of(ds);
        let out = svc
            .invoke(
                "openStream",
                &[
                    ("header".into(), SoapValue::Bytes(header.to_bytes())),
                    ("learner".into(), SoapValue::Text(learner.into())),
                    ("options".into(), SoapValue::Text(String::new())),
                    ("window".into(), SoapValue::Int(window)),
                    ("rowNanos".into(), SoapValue::Int(1_000)),
                ],
            )
            .unwrap();
        out.as_text().unwrap().to_string()
    }

    fn send(
        svc: &DataStreamService,
        id: &str,
        seq: i64,
        at: i64,
        batch: &RecordBatch,
    ) -> Result<SoapValue, ServiceFault> {
        svc.invoke(
            "sendChunk",
            &[
                ("streamId".into(), SoapValue::Text(id.into())),
                ("seq".into(), SoapValue::Int(seq)),
                ("atNanos".into(), SoapValue::Int(at)),
                ("chunk".into(), SoapValue::Bytes(batch.to_bytes())),
            ],
        )
    }

    #[test]
    fn streamed_hoeffding_matches_local_train() {
        let ds = nominal_classification(600, 4, 3, 2, 0.1, 5);
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "HoeffdingTree", 1_000);
        for (i, batch) in chunk(&ds, 64).unwrap().iter().enumerate() {
            send(&svc, &id, i as i64, i as i64 * 10_000_000, batch).unwrap();
        }
        svc.invoke(
            "closeStream",
            &[("streamId".into(), SoapValue::Text(id.clone()))],
        )
        .unwrap();
        let state = svc
            .invoke(
                "modelState",
                &[("streamId".into(), SoapValue::Text(id.clone()))],
            )
            .unwrap();
        let mut local = HoeffdingTree::new();
        local.train(&ds).unwrap();
        assert_eq!(state.as_bytes().unwrap(), local.encode_state().as_slice());

        // The live model answers classifyInstances with label strings.
        let labels = svc
            .invoke(
                "classifyInstances",
                &[
                    ("streamId".into(), SoapValue::Text(id.clone())),
                    ("instances".into(), SoapValue::Text(write_arff(&ds))),
                ],
            )
            .unwrap();
        assert_eq!(labels.as_list().unwrap().len(), 600);
    }

    #[test]
    fn window_full_sheds_with_retry_hint() {
        let ds = nominal_classification(100, 4, 3, 2, 0.1, 5);
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "RunningStats", 2);
        let batches = chunk(&ds, 10).unwrap();
        // All sends at virtual time 0: the third must shed.
        send(&svc, &id, 0, 0, &batches[0]).unwrap();
        send(&svc, &id, 1, 0, &batches[1]).unwrap();
        let err = send(&svc, &id, 2, 0, &batches[2]).unwrap_err();
        assert_eq!(err.code, "Server");
        assert!(
            err.message.contains("retry_after_nanos="),
            "{}",
            err.message
        );
        // After the window drains on the virtual clock, the send lands.
        send(&svc, &id, 2, 60_000, &batches[2]).unwrap();
        // Duplicate delivery of an absorbed chunk acks idempotently:
        // no new rows counted, one busy rejection on the books.
        send(&svc, &id, 1, 70_000, &batches[1]).unwrap();
        let stats = svc
            .invoke(
                "streamStats",
                &[("streamId".into(), SoapValue::Text(id.clone()))],
            )
            .unwrap();
        let stats = stats.as_list().unwrap();
        assert_eq!(stats[0].as_int().unwrap(), 3); // chunks absorbed once each
        assert_eq!(stats[1].as_int().unwrap(), 30); // rows
        assert_eq!(stats[3].as_int().unwrap(), 1); // busy rejections
    }

    #[test]
    fn malformed_chunk_faults_across_service() {
        let ds = nominal_classification(20, 4, 3, 2, 0.1, 5);
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "RunningStats", 8);
        // A chunk from a different schema (wrong column count) is
        // rejected by receive-time validation against the header.
        let narrow = nominal_classification(20, 2, 3, 2, 0.1, 5);
        let wrong = RecordBatch::from_rows(&narrow, 0..5);
        let err = send(&svc, &id, 0, 0, &wrong).unwrap_err();
        assert_eq!(err.code, "Client");
        // Truncated bytes fault instead of panicking the container.
        let good = RecordBatch::from_rows(&ds, 0..5).to_bytes();
        let err = svc
            .invoke(
                "sendChunk",
                &[
                    ("streamId".into(), SoapValue::Text(id.clone())),
                    ("seq".into(), SoapValue::Int(0)),
                    ("atNanos".into(), SoapValue::Int(0)),
                    (
                        "chunk".into(),
                        SoapValue::Bytes(good[..good.len() / 2].to_vec()),
                    ),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }

    #[test]
    fn non_finite_cells_and_bad_weights_fault_before_the_model_sees_them() {
        let ds = dm_data::corpus::weather_numeric();
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "RunningStats", 8);
        let batches = chunk(&ds, 5).unwrap();
        send(&svc, &id, 0, 0, &batches[0]).unwrap();
        let stats = |svc: &DataStreamService| {
            svc.invoke(
                "streamStats",
                &[("streamId".into(), SoapValue::Text(id.clone()))],
            )
            .unwrap()
        };
        let before = stats(&svc);
        let temperature = ds.attribute_index("temperature").unwrap();
        let mut bad = Vec::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut batch = batches[1].clone();
            let Column::Numeric { values, .. } = &mut batch.columns[temperature] else {
                panic!("temperature is numeric")
            };
            values[3] = v;
            bad.push((batch, "\"temperature\", row 3"));
        }
        for w in [-1.0, f64::NAN, f64::INFINITY] {
            let mut batch = batches[1].clone();
            batch.weights[2] = w;
            bad.push((batch, "row 2: weight"));
        }
        // A nominal code outside the header's domain, and a column of the
        // wrong kind, are the caller's errors too.
        let outlook = ds.attribute_index("outlook").unwrap();
        let mut batch = batches[1].clone();
        let Column::Nominal { codes, .. } = &mut batch.columns[outlook] else {
            panic!("outlook is nominal")
        };
        codes.set(3, 200);
        bad.push((batch, "code 200 out of range for attribute \"outlook\""));
        let mut batch = batches[1].clone();
        batch.columns[outlook] = batch.columns[temperature].clone();
        bad.push((batch, "attribute \"outlook\" is not nominal"));
        // Sent at the accepted chunk's instant, so that no in-flight
        // chunk drains between the reads of the stats.
        for (batch, names) in &bad {
            let err = send(&svc, &id, 1, 0, batch).unwrap_err();
            assert_eq!(err.code, "Client", "{}", err.message);
            assert!(err.message.contains(names), "{}", err.message);
            assert_eq!(stats(&svc), before);
        }
        // The stream goes on: the clean chunk lands at the same seq.
        send(&svc, &id, 1, 0, &batches[1]).unwrap();
    }

    #[test]
    fn send_after_close_faults() {
        let ds = nominal_classification(20, 4, 3, 2, 0.1, 5);
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "RunningStats", 8);
        let batches = chunk(&ds, 10).unwrap();
        send(&svc, &id, 0, 0, &batches[0]).unwrap();
        svc.invoke(
            "closeStream",
            &[("streamId".into(), SoapValue::Text(id.clone()))],
        )
        .unwrap();
        let err = send(&svc, &id, 1, 1_000_000, &batches[1]).unwrap_err();
        assert_eq!(err.code, "Client");
        assert!(err.message.contains("closed"), "{}", err.message);
    }

    #[test]
    fn sequence_gap_faults() {
        let ds = nominal_classification(20, 4, 3, 2, 0.1, 5);
        let svc = DataStreamService::new();
        let id = open(&svc, &ds, "RunningStats", 8);
        let batches = chunk(&ds, 10).unwrap();
        let err = send(&svc, &id, 3, 0, &batches[0]).unwrap_err();
        assert!(err.message.contains("sequence gap"), "{}", err.message);
    }
}
