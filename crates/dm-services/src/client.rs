//! Typed client stubs: what Triana's generated per-operation tools do —
//! marshal arguments into SOAP calls over the (simulated) network and
//! unmarshal the results. Every client can optionally route through a
//! [`ResilientCaller`] so its calls get deadlines, backoff retries, and
//! circuit-breaker accounting.

use dm_wsrf::dataplane::CacheStats;
use dm_wsrf::error::Result;
use dm_wsrf::resilience::{attempt, ResilientCaller};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::transport::Network;
use std::sync::Arc;

fn text(v: SoapValue) -> Result<String> {
    Ok(v.as_text()?.to_string())
}

fn text_list(v: SoapValue) -> Result<Vec<String>> {
    v.as_list()?
        .iter()
        .map(|x| Ok(x.as_text()?.to_string()))
        .collect()
}

/// Index into a decoded response list, turning a too-short reply into a
/// typed `Malformed` error instead of an index panic. Every client that
/// unpacks a positional list goes through here: a truncated or
/// malformed response from a (simulated) wire must surface as a
/// `WsError`, never take the client process down.
fn list_item<'v>(list: &'v [SoapValue], index: usize, what: &str) -> Result<&'v SoapValue> {
    list.get(index).ok_or_else(|| {
        dm_wsrf::error::WsError::Malformed(format!(
            "{what}: expected at least {} items, got {}",
            index + 1,
            list.len()
        ))
    })
}

/// Floor for `retry_after_nanos=` back-pressure hints: 1 µs. A missing
/// or unparsable hint must still back off a real amount of virtual
/// time, not hot-spin the retry loop at 1 ns a lap.
const MIN_RETRY_NANOS: u64 = 1_000;

/// Extract the `retry_after_nanos=<n>` hint from a shed-fault message.
/// Only the leading digit run after the marker is parsed, so messages
/// that append diagnostics after the number (e.g. `retry_after_nanos=
/// 250000 (window 2)`) still yield 250000 rather than failing the parse
/// and collapsing to a 1 ns spin. Unparsable hints clamp to
/// [`MIN_RETRY_NANOS`].
fn retry_hint_nanos(message: &str) -> u64 {
    let tail = message.rsplit("retry_after_nanos=").next().unwrap_or("");
    let digits = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..digits].parse().unwrap_or(0).max(MIN_RETRY_NANOS)
}

/// The transport handle shared by the typed clients: a target host and
/// either the bare network or a resilient caller over it.
#[derive(Clone)]
pub struct ClientChannel {
    network: Arc<Network>,
    host: String,
    resilience: Option<ResilientCaller>,
}

impl ClientChannel {
    /// A plain channel to `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> ClientChannel {
        ClientChannel {
            network,
            host: host.to_string(),
            resilience: None,
        }
    }

    /// Route every invocation through `caller` (deadline, retries with
    /// backoff on the virtual clock, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> ClientChannel {
        self.resilience = Some(caller);
        self
    }

    /// The target host.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Invoke `operation` on `service` at the channel's host, as one
    /// [`attempt`] (a traced SOAP call, through the resilient caller
    /// when one is attached).
    pub fn invoke(
        &self,
        service: &str,
        operation: &str,
        args: Vec<(String, SoapValue)>,
    ) -> Result<SoapValue> {
        attempt(
            &self.network,
            self.resilience.as_ref(),
            &self.host,
            service,
            operation,
            args,
        )
        .0
    }
}

/// Client for the general Classifier Web Service.
#[derive(Clone)]
pub struct ClassifierClient {
    channel: ClientChannel,
}

impl ClassifierClient {
    /// Point the client at `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> ClassifierClient {
        ClassifierClient {
            channel: ClientChannel::new(network, host),
        }
    }

    /// Route this client's calls through `caller` (deadlines, backoff
    /// retries, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> ClassifierClient {
        self.channel = self.channel.with_resilience(caller);
        self
    }

    /// `getClassifiers` — available classifier names.
    pub fn get_classifiers(&self) -> Result<Vec<String>> {
        text_list(
            self.channel
                .invoke("Classifier", "getClassifiers", vec![])?,
        )
    }

    /// `getOptions` — `(flag, name, description, default)` rows.
    pub fn get_options(&self, classifier: &str) -> Result<Vec<(String, String, String, String)>> {
        let v = self.channel.invoke(
            "Classifier",
            "getOptions",
            vec![("classifier".into(), SoapValue::Text(classifier.into()))],
        )?;
        v.as_list()?
            .iter()
            .map(|row| {
                let cells = row.as_list()?;
                Ok((
                    list_item(cells, 0, "getOptions row")?
                        .as_text()?
                        .to_string(),
                    list_item(cells, 1, "getOptions row")?
                        .as_text()?
                        .to_string(),
                    list_item(cells, 2, "getOptions row")?
                        .as_text()?
                        .to_string(),
                    list_item(cells, 3, "getOptions row")?
                        .as_text()?
                        .to_string(),
                ))
            })
            .collect()
    }

    /// `getCacheStats` — `(model, evaluation)` cache counters. Rows
    /// carry counts only, so `bytes` is always 0.
    pub fn get_cache_stats(&self) -> Result<(CacheStats, CacheStats)> {
        let v = self.channel.invoke("Classifier", "getCacheStats", vec![])?;
        let rows = v.as_list()?;
        let decode = |row: &SoapValue| -> Result<CacheStats> {
            let cells = row.as_list()?;
            Ok(CacheStats {
                lookups: list_item(cells, 0, "getCacheStats row")?.as_int()? as u64,
                hits: list_item(cells, 1, "getCacheStats row")?.as_int()? as u64,
                misses: list_item(cells, 2, "getCacheStats row")?.as_int()? as u64,
                insertions: list_item(cells, 3, "getCacheStats row")?.as_int()? as u64,
                evictions: list_item(cells, 4, "getCacheStats row")?.as_int()? as u64,
                entries: list_item(cells, 5, "getCacheStats row")?.as_int()? as usize,
                bytes: 0,
            })
        };
        Ok((
            decode(list_item(rows, 0, "getCacheStats")?)?,
            decode(list_item(rows, 1, "getCacheStats")?)?,
        ))
    }

    /// `classifyInstance` — the paper's four-input operation.
    pub fn classify_instance(
        &self,
        dataset_arff: &str,
        classifier: &str,
        options: &str,
        attribute: &str,
    ) -> Result<String> {
        text(self.channel.invoke(
            "Classifier",
            "classifyInstance",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("classifier".into(), SoapValue::Text(classifier.into())),
                ("options".into(), SoapValue::Text(options.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
            ],
        )?)
    }

    /// `classifyGraph` — SVG graph of a tree-shaped model.
    pub fn classify_graph(
        &self,
        dataset_arff: &str,
        classifier: &str,
        options: &str,
        attribute: &str,
    ) -> Result<String> {
        text(self.channel.invoke(
            "Classifier",
            "classifyGraph",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("classifier".into(), SoapValue::Text(classifier.into())),
                ("options".into(), SoapValue::Text(options.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
            ],
        )?)
    }

    /// `classifyInstances` — train (or reuse) the model and score a
    /// whole batch of instances in one envelope. `instances_arff` must
    /// share the training header; returns predicted class labels in row
    /// order. One SOAP round trip replaces N `classifyInstance` calls
    /// and the server scores the rows in parallel.
    pub fn classify_instances(
        &self,
        dataset_arff: &str,
        classifier: &str,
        options: &str,
        attribute: &str,
        instances_arff: &str,
    ) -> Result<Vec<String>> {
        text_list(self.channel.invoke(
            "Classifier",
            "classifyInstances",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("classifier".into(), SoapValue::Text(classifier.into())),
                ("options".into(), SoapValue::Text(options.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
                ("instances".into(), SoapValue::Text(instances_arff.into())),
            ],
        )?)
    }

    /// `crossValidate` — k-fold CV summary text.
    pub fn cross_validate(
        &self,
        dataset_arff: &str,
        classifier: &str,
        options: &str,
        attribute: &str,
        folds: usize,
    ) -> Result<String> {
        text(self.channel.invoke(
            "Classifier",
            "crossValidate",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("classifier".into(), SoapValue::Text(classifier.into())),
                ("options".into(), SoapValue::Text(options.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
                ("folds".into(), SoapValue::Int(folds as i64)),
            ],
        )?)
    }
}

/// Client for the dedicated J48 Web Service.
#[derive(Clone)]
pub struct J48Client {
    channel: ClientChannel,
}

impl J48Client {
    /// Point the client at `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> J48Client {
        J48Client {
            channel: ClientChannel::new(network, host),
        }
    }

    /// Route this client's calls through `caller` (deadlines, backoff
    /// retries, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> J48Client {
        self.channel = self.channel.with_resilience(caller);
        self
    }

    /// `classify` — returns the textual decision tree.
    pub fn classify(&self, dataset_arff: &str, attribute: &str, options: &str) -> Result<String> {
        text(self.channel.invoke(
            "J48",
            "classify",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
                ("options".into(), SoapValue::Text(options.into())),
            ],
        )?)
    }

    /// `classifyGraph` — SVG tree.
    pub fn classify_graph(
        &self,
        dataset_arff: &str,
        attribute: &str,
        options: &str,
    ) -> Result<String> {
        text(self.channel.invoke(
            "J48",
            "classifyGraph",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("attribute".into(), SoapValue::Text(attribute.into())),
                ("options".into(), SoapValue::Text(options.into())),
            ],
        )?)
    }

    /// `setLifecycle` — `"serialize-per-call"` or `"in-memory-harness"`.
    pub fn set_lifecycle(&self, policy: &str) -> Result<()> {
        self.channel.invoke(
            "J48",
            "setLifecycle",
            vec![("policy".into(), SoapValue::Text(policy.into()))],
        )?;
        Ok(())
    }

    /// `getLifecycleStats` — `(serialisations, deserialisations, hits)`.
    pub fn lifecycle_stats(&self) -> Result<(i64, i64, i64)> {
        let v = self.channel.invoke("J48", "getLifecycleStats", vec![])?;
        let list = v.as_list()?;
        Ok((
            list_item(list, 0, "getLifecycleStats")?.as_int()?,
            list_item(list, 1, "getLifecycleStats")?.as_int()?,
            list_item(list, 2, "getLifecycleStats")?.as_int()?,
        ))
    }
}

/// Client for the clustering services.
#[derive(Clone)]
pub struct ClustererClient {
    channel: ClientChannel,
}

impl ClustererClient {
    /// Point the client at `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> ClustererClient {
        ClustererClient {
            channel: ClientChannel::new(network, host),
        }
    }

    /// Route this client's calls through `caller` (deadlines, backoff
    /// retries, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> ClustererClient {
        self.channel = self.channel.with_resilience(caller);
        self
    }

    /// General service: available clusterer names.
    pub fn get_clusterers(&self) -> Result<Vec<String>> {
        text_list(self.channel.invoke("Clusterer", "getClusterers", vec![])?)
    }

    /// General service: build a named clusterer, returns the report.
    pub fn cluster(&self, dataset_arff: &str, clusterer: &str, options: &str) -> Result<String> {
        text(self.channel.invoke(
            "Clusterer",
            "cluster",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("clusterer".into(), SoapValue::Text(clusterer.into())),
                ("options".into(), SoapValue::Text(options.into())),
            ],
        )?)
    }

    /// Dedicated Cobweb service: `getCobwebGraph` SVG.
    pub fn cobweb_graph(&self, dataset_arff: &str, options: &str) -> Result<String> {
        text(self.channel.invoke(
            "Cobweb",
            "getCobwebGraph",
            vec![
                ("dataset".into(), SoapValue::Text(dataset_arff.into())),
                ("options".into(), SoapValue::Text(options.into())),
            ],
        )?)
    }
}

/// Client for the data conversion and URL-reader services.
#[derive(Clone)]
pub struct ConvertClient {
    channel: ClientChannel,
}

impl ConvertClient {
    /// Point the client at `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> ConvertClient {
        ConvertClient {
            channel: ClientChannel::new(network, host),
        }
    }

    /// Route this client's calls through `caller` (deadlines, backoff
    /// retries, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> ConvertClient {
        self.channel = self.channel.with_resilience(caller);
        self
    }

    /// `csvToArff`.
    pub fn csv_to_arff(&self, csv: &str) -> Result<String> {
        text(self.channel.invoke(
            "DataConversion",
            "csvToArff",
            vec![("csv".into(), SoapValue::Text(csv.into()))],
        )?)
    }

    /// `summary` — the Figure-3 table.
    pub fn summary(&self, dataset: &str) -> Result<String> {
        text(self.channel.invoke(
            "DataConversion",
            "summary",
            vec![("dataset".into(), SoapValue::Text(dataset.into()))],
        )?)
    }

    /// `readArff` on the URL reader.
    pub fn read_arff(&self, url: &str) -> Result<String> {
        text(self.channel.invoke(
            "UrlReader",
            "readArff",
            vec![("url".into(), SoapValue::Text(url.into()))],
        )?)
    }
}

/// `sendChunk` acknowledgement: ingest progress at the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAck {
    /// Total rows absorbed by the stream so far.
    pub rows_total: u64,
    /// Chunks admitted but not yet absorbed at the caller's clock.
    pub backlog_chunks: usize,
    /// Virtual time until the model has absorbed everything sent —
    /// the freshness lag E18 plots against window size.
    pub staleness: std::time::Duration,
}

/// Decode the `sendChunk` ack list, surfacing short or malformed acks
/// as typed errors (a truncated ack used to panic the client on
/// `ack[1]`).
fn decode_chunk_ack(v: &SoapValue) -> Result<ChunkAck> {
    let ack = v.as_list()?;
    Ok(ChunkAck {
        rows_total: list_item(ack, 0, "sendChunk ack")?.as_int()? as u64,
        backlog_chunks: list_item(ack, 1, "sendChunk ack")?.as_int()? as usize,
        staleness: std::time::Duration::from_nanos(
            list_item(ack, 2, "sendChunk ack")?.as_int()?.max(0) as u64,
        ),
    })
}

/// `streamStats` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStatsSnapshot {
    /// Chunks absorbed (duplicates excluded).
    pub chunks: u64,
    /// Rows absorbed.
    pub rows: u64,
    /// In-flight chunks at the last timestamped call.
    pub backlog: usize,
    /// Sheds due to a full window.
    pub busy_rejections: u64,
    /// Most rows the service ever held resident at once.
    pub peak_resident_rows: u64,
}

/// Client for the streaming-ingest `DataStream` service: the producer
/// side of the E18 data plane. Chunks are timestamped with the
/// caller's virtual clock; when the service sheds with
/// `retry_after_nanos=…` the client sleeps that long on the virtual
/// clock and retries — co-operative back-pressure without threads.
#[derive(Clone)]
pub struct StreamClient {
    network: Arc<Network>,
    channel: ClientChannel,
}

impl StreamClient {
    /// Point the client at `host` on `network`.
    pub fn new(network: Arc<Network>, host: &str) -> StreamClient {
        StreamClient {
            channel: ClientChannel::new(Arc::clone(&network), host),
            network,
        }
    }

    /// Route this client's calls through `caller` (deadlines, backoff
    /// retries, circuit breakers).
    pub fn with_resilience(mut self, caller: ResilientCaller) -> StreamClient {
        self.channel = self.channel.with_resilience(caller);
        self
    }

    /// `openStream` — returns the stream id.
    pub fn open_stream(
        &self,
        header: &dm_data::stream::StreamHeader,
        learner: &str,
        options: &str,
        window: u64,
        row_cost: std::time::Duration,
    ) -> Result<String> {
        text(self.channel.invoke(
            "DataStream",
            "openStream",
            vec![
                ("header".into(), SoapValue::Bytes(header.to_bytes())),
                ("learner".into(), SoapValue::Text(learner.into())),
                ("options".into(), SoapValue::Text(options.into())),
                ("window".into(), SoapValue::Int(window as i64)),
                (
                    "rowNanos".into(),
                    SoapValue::Int(row_cost.as_nanos() as i64),
                ),
            ],
        )?)
    }

    /// `sendChunk` — push one columnar batch, waiting out back-pressure
    /// on the virtual clock when the service's window is full.
    pub fn send_chunk(
        &self,
        stream_id: &str,
        seq: u64,
        batch: &dm_data::stream::RecordBatch,
    ) -> Result<ChunkAck> {
        let bytes = batch.to_bytes();
        // Bounded retry: each shed tells us how long until a window
        // slot frees, so a handful of sleeps always suffices.
        let mut last_err = None;
        for _ in 0..16 {
            let at = self.network.now().as_nanos() as i64;
            let result = self.channel.invoke(
                "DataStream",
                "sendChunk",
                vec![
                    ("streamId".into(), SoapValue::Text(stream_id.into())),
                    ("seq".into(), SoapValue::Int(seq as i64)),
                    ("atNanos".into(), SoapValue::Int(at)),
                    ("chunk".into(), SoapValue::Bytes(bytes.clone())),
                ],
            );
            match result {
                Ok(v) => return decode_chunk_ack(&v),
                Err(dm_wsrf::error::WsError::Fault { code, message })
                    if code == "Server" && message.contains("retry_after_nanos=") =>
                {
                    let nanos = retry_hint_nanos(&message);
                    self.network
                        .advance_virtual_time(std::time::Duration::from_nanos(nanos));
                    last_err = Some(dm_wsrf::error::WsError::Fault { code, message });
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("retry loop exits with an error"))
    }

    /// Stream a whole dataset: open, chunk, send with back-pressure,
    /// close. Returns `(stream_id, final ack)`.
    pub fn send_dataset(
        &self,
        ds: &dm_data::Dataset,
        chunk_rows: usize,
        learner: &str,
        options: &str,
        window: u64,
        row_cost: std::time::Duration,
    ) -> Result<(String, ChunkAck)> {
        let header = dm_data::stream::StreamHeader::of(ds);
        let id = self.open_stream(&header, learner, options, window, row_cost)?;
        let mut last = ChunkAck {
            rows_total: 0,
            backlog_chunks: 0,
            staleness: std::time::Duration::ZERO,
        };
        for (seq, batch) in dm_data::stream::chunk_dataset(ds, chunk_rows)
            .map_err(|e| dm_wsrf::error::WsError::Fault {
                code: "Client".into(),
                message: e.to_string(),
            })?
            .iter()
            .enumerate()
        {
            last = self.send_chunk(&id, seq as u64, batch)?;
        }
        self.close_stream(&id)?;
        Ok((id, last))
    }

    /// `classifyInstances` — label strings from the live model.
    pub fn classify_instances(&self, stream_id: &str, arff: &str) -> Result<Vec<String>> {
        text_list(self.channel.invoke(
            "DataStream",
            "classifyInstances",
            vec![
                ("streamId".into(), SoapValue::Text(stream_id.into())),
                ("instances".into(), SoapValue::Text(arff.into())),
            ],
        )?)
    }

    /// `classifyInstances` against a clustering stream — cluster ids.
    pub fn assign_clusters(&self, stream_id: &str, arff: &str) -> Result<Vec<usize>> {
        self.channel
            .invoke(
                "DataStream",
                "classifyInstances",
                vec![
                    ("streamId".into(), SoapValue::Text(stream_id.into())),
                    ("instances".into(), SoapValue::Text(arff.into())),
                ],
            )?
            .as_list()?
            .iter()
            .map(|v| Ok(v.as_int()? as usize))
            .collect()
    }

    /// `modelDescription`.
    pub fn model_description(&self, stream_id: &str) -> Result<String> {
        text(self.channel.invoke(
            "DataStream",
            "modelDescription",
            vec![("streamId".into(), SoapValue::Text(stream_id.into()))],
        )?)
    }

    /// `modelState` — the learner's exact encoded state.
    pub fn model_state(&self, stream_id: &str) -> Result<Vec<u8>> {
        Ok(self
            .channel
            .invoke(
                "DataStream",
                "modelState",
                vec![("streamId".into(), SoapValue::Text(stream_id.into()))],
            )?
            .as_bytes()?
            .to_vec())
    }

    /// `streamStats`.
    pub fn stream_stats(&self, stream_id: &str) -> Result<StreamStatsSnapshot> {
        let v = self.channel.invoke(
            "DataStream",
            "streamStats",
            vec![("streamId".into(), SoapValue::Text(stream_id.into()))],
        )?;
        let v = v.as_list()?;
        Ok(StreamStatsSnapshot {
            chunks: list_item(v, 0, "streamStats")?.as_int()? as u64,
            rows: list_item(v, 1, "streamStats")?.as_int()? as u64,
            backlog: list_item(v, 2, "streamStats")?.as_int()? as usize,
            busy_rejections: list_item(v, 3, "streamStats")?.as_int()? as u64,
            peak_resident_rows: list_item(v, 4, "streamStats")?.as_int()? as u64,
        })
    }

    /// `closeStream` — flush the learner and seal the stream.
    pub fn close_stream(&self, stream_id: &str) -> Result<()> {
        self.channel.invoke(
            "DataStream",
            "closeStream",
            vec![("streamId".into(), SoapValue::Text(stream_id.into()))],
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy_faehim_suite;
    use dm_wsrf::container::{ServiceFault, WebService};
    use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn network() -> Arc<Network> {
        let net = Arc::new(Network::new());
        let host = net.add_host("miner");
        deploy_faehim_suite(&host).unwrap();
        net
    }

    /// Impersonates `DataStream.sendChunk` with a scripted reply:
    /// sheds the first call with a back-pressure hint that carries
    /// trailing diagnostics, then acks with a fixed (possibly
    /// truncated) list.
    struct ScriptedStream {
        calls: AtomicU32,
        shed_message: &'static str,
        ack: Vec<i64>,
    }

    impl WebService for ScriptedStream {
        fn name(&self) -> &str {
            "DataStream"
        }

        fn wsdl(&self) -> WsdlDocument {
            WsdlDocument::new("DataStream", "http://localhost/DataStream").operation(
                Operation::new(
                    "sendChunk",
                    vec![
                        Part::new("streamId", "string"),
                        Part::new("seq", "long"),
                        Part::new("atNanos", "long"),
                        Part::new("chunk", "base64Binary"),
                    ],
                    Part::new("ack", "list"),
                ),
            )
        }

        fn invoke(
            &self,
            operation: &str,
            _args: &[(String, SoapValue)],
        ) -> std::result::Result<SoapValue, ServiceFault> {
            match operation {
                "sendChunk" => {
                    if self.calls.fetch_add(1, Ordering::SeqCst) == 0
                        && !self.shed_message.is_empty()
                    {
                        Err(ServiceFault::server(self.shed_message))
                    } else {
                        Ok(SoapValue::List(
                            self.ack.iter().map(|&n| SoapValue::Int(n)).collect(),
                        ))
                    }
                }
                _ => Err(ServiceFault::client("no such operation")),
            }
        }
    }

    fn one_batch() -> dm_data::stream::RecordBatch {
        let ds = dm_data::corpus::nominal_classification(20, 2, 2, 2, 0.1, 5);
        dm_data::stream::chunk_dataset(&ds, 20).unwrap().remove(0)
    }

    #[test]
    fn classifier_client_end_to_end() {
        let net = network();
        let client = ClassifierClient::new(Arc::clone(&net), "miner");
        let names = client.get_classifiers().unwrap();
        assert!(names.contains(&"J48".to_string()));
        let options = client.get_options("J48").unwrap();
        assert!(options.iter().any(|(flag, ..)| flag == "-C"));
        let model = client
            .classify_instance(
                &dm_data::corpus::breast_cancer_arff(),
                "J48",
                "-C 0.25 -M 2",
                "Class",
            )
            .unwrap();
        assert!(model.contains("node-caps"));
    }

    #[test]
    fn j48_client_lifecycle_roundtrip() {
        let net = network();
        let client = J48Client::new(Arc::clone(&net), "miner");
        client.set_lifecycle("in-memory-harness").unwrap();
        client
            .classify(&dm_data::corpus::breast_cancer_arff(), "Class", "")
            .unwrap();
        client
            .classify(&dm_data::corpus::breast_cancer_arff(), "Class", "")
            .unwrap();
        let (ser, _, hits) = client.lifecycle_stats().unwrap();
        assert_eq!(ser, 0);
        assert_eq!(hits, 1);
        assert!(client.set_lifecycle("nonsense").is_err());
    }

    #[test]
    fn convert_client_summary() {
        let net = network();
        let client = ConvertClient::new(Arc::clone(&net), "miner");
        let arff = client
            .read_arff("http://www.ics.uci.edu/mlearn/breast-cancer.arff")
            .unwrap();
        let table = client.summary(&arff).unwrap();
        assert!(table.contains("Num Instances 286"));
    }

    #[test]
    fn retry_hint_parses_leading_digits_and_clamps_to_floor() {
        // The hint must survive trailing diagnostics after the number —
        // the pre-fix parse fed the whole suffixed tail to `parse()`,
        // failed, and fell back to a 1 ns spin.
        assert_eq!(
            retry_hint_nanos("stream window full (2 chunks in flight); retry_after_nanos=250000 (window 2, backlog 2)"),
            250_000
        );
        assert_eq!(retry_hint_nanos("retry_after_nanos=250000"), 250_000);
        // Unparsable or sub-floor hints clamp to the 1 µs floor rather
        // than hot-spinning the bounded retry loop.
        assert_eq!(retry_hint_nanos("retry_after_nanos=soon"), MIN_RETRY_NANOS);
        assert_eq!(retry_hint_nanos("retry_after_nanos=3"), MIN_RETRY_NANOS);
        assert_eq!(retry_hint_nanos("no hint at all"), MIN_RETRY_NANOS);
    }

    #[test]
    fn suffixed_retry_hint_backs_off_the_hinted_amount() {
        let net = Arc::new(Network::new());
        net.add_host("shed").deploy(Arc::new(ScriptedStream {
            calls: AtomicU32::new(0),
            shed_message:
                "stream window full (2 chunks in flight); retry_after_nanos=50000000 (window 2, backlog 2)",
            ack: vec![5, 0, 0],
        }));
        let client = StreamClient::new(Arc::clone(&net), "shed");
        let before = net.now();
        let ack = client.send_chunk("s", 0, &one_batch()).unwrap();
        assert_eq!(ack.rows_total, 5);
        // The hinted 50 ms dwarfs the wire time of the two calls, so
        // this asserts the *hint* was honoured; the pre-fix code slept
        // 1 ns and fails here.
        let waited = net.now() - before;
        assert!(
            waited >= std::time::Duration::from_millis(50),
            "client only backed off {waited:?} against a 50 ms hint"
        );
    }

    #[test]
    fn short_chunk_ack_is_a_typed_error_not_a_panic() {
        let net = Arc::new(Network::new());
        net.add_host("short").deploy(Arc::new(ScriptedStream {
            calls: AtomicU32::new(0),
            shed_message: "",
            ack: vec![5],
        }));
        let client = StreamClient::new(Arc::clone(&net), "short");
        // A one-element ack used to panic on `ack[1]`; it must surface
        // as a typed malformed-response error instead.
        let err = client.send_chunk("s", 0, &one_batch()).unwrap_err();
        assert!(
            matches!(&err, dm_wsrf::error::WsError::Malformed(m) if m.contains("sendChunk ack")),
            "expected Malformed, got {err:?}"
        );
    }

    #[test]
    fn stream_client_end_to_end_with_backpressure() {
        let net = network();
        let client = StreamClient::new(Arc::clone(&net), "miner");
        let ds = dm_data::corpus::nominal_classification(400, 4, 3, 2, 0.1, 5);
        // A 2-chunk window with a visible per-row cost forces the
        // client through the shed-and-retry path on the virtual clock.
        let (id, ack) = client
            .send_dataset(
                &ds,
                32,
                "HoeffdingTree",
                "",
                2,
                std::time::Duration::from_millis(5),
            )
            .unwrap();
        assert_eq!(ack.rows_total, 400);
        let stats = client.stream_stats(&id).unwrap();
        assert_eq!(stats.rows, 400);
        assert!(stats.busy_rejections > 0, "window never filled");
        // Peak resident memory is one chunk, not the dataset.
        assert!(stats.peak_resident_rows <= 32);
        // The served model answers over the same transport.
        let labels = client
            .classify_instances(&id, &dm_data::arff::write_arff(&ds))
            .unwrap();
        assert_eq!(labels.len(), 400);
        let state = client.model_state(&id).unwrap();
        assert!(!state.is_empty());
        assert!(client.model_description(&id).unwrap().contains("Hoeffding"));
    }

    #[test]
    fn clusterer_client_runs() {
        let net = network();
        let client = ClustererClient::new(Arc::clone(&net), "miner");
        assert!(client.get_clusterers().unwrap().len() >= 5);
        let ds = dm_data::corpus::gaussian_blobs(
            &[
                dm_data::corpus::BlobSpec {
                    center: vec![0.0],
                    stddev: 0.2,
                    count: 20,
                },
                dm_data::corpus::BlobSpec {
                    center: vec![9.0],
                    stddev: 0.2,
                    count: 20,
                },
            ],
            3,
        );
        let report = client
            .cluster(&dm_data::arff::write_arff(&ds), "SimpleKMeans", "-N 2")
            .unwrap();
        assert!(report.contains("Number of clusters: 2"));
    }
}
