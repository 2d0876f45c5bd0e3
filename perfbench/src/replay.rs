//! Replayed layer calls: how the traced run sees inside one SOAP call.
//!
//! `Network::invoke` encodes, transmits, dispatches, runs the handler
//! and decodes in one call, so the benchmark cannot open spans between
//! those steps. After each traced op it re-executes every layer call of
//! the op's SOAP calls on the same inputs: the envelope codec, the
//! data-plane hash, `ServiceContainer::dispatch` of the call as it
//! crossed the wire (`DataRef` handles included) on a standalone
//! container whose services are stubs returning the recorded response,
//! `WebService::invoke` on a standalone service instance, `parse_arff`
//! on each dataset the handler parses, and the mining call on the
//! pre-parsed dataset. The standalone instances receive the same call
//! sequence as the deployed ones, so their caches hit and miss in step
//! with them. Replayed spans are children of the span that made the
//! real call (see [`crate::trace`]).

use crate::trace::{SpanId, Tracer};
use dm_algorithms::classifiers::Classifier;
use dm_algorithms::options::parse_options_string;
use dm_algorithms::registry::{make_classifier, make_clusterer};
use dm_data::filters::{Discretize, Filter, Normalize};
use dm_data::summary::DatasetSummary;
use dm_data::Dataset;
use dm_services::classifier_ws::ClassifierService;
use dm_wsrf::container::{ServiceContainer, ServiceFault, WebService};
use dm_wsrf::dataplane::{content_ref, Payload};
use dm_wsrf::soap::{SoapCall, SoapResponse, SoapValue};
use dm_wsrf::wsdl::WsdlDocument;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// One SOAP call an op made, as the replay needs it.
pub struct Call {
    /// Target service.
    pub service: String,
    /// Operation name.
    pub operation: String,
    /// Arguments as the caller passed them (payloads inline).
    pub args: Vec<(String, SoapValue)>,
    /// The decoded response value.
    pub response: SoapValue,
    /// Whether the data plane sent the request's large payloads as
    /// `DataRef` handles (the request envelope then carries handles).
    pub by_ref: bool,
}

impl Call {
    /// A call record with inline payloads.
    pub fn new(
        service: &str,
        operation: &str,
        args: Vec<(String, SoapValue)>,
        response: SoapValue,
    ) -> Call {
        Call {
            service: service.to_string(),
            operation: operation.to_string(),
            args,
            response,
            by_ref: false,
        }
    }
}

const POISONED: &str = "no code panics while holding a stub's response";

/// A service that answers every call with the response it was last
/// given, so that a dispatch is timed without a handler run.
struct Stub {
    name: String,
    response: Mutex<SoapValue>,
}

impl WebService for Stub {
    fn name(&self) -> &str {
        &self.name
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new(&self.name, format!("http://localhost/{}", self.name))
    }

    fn invoke(
        &self,
        _operation: &str,
        _args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        Ok(self.response.lock().expect(POISONED).clone())
    }
}

/// Standalone instances the replays run on.
pub struct Replayer {
    /// Dispatch target: a stub per service name.
    container: ServiceContainer,
    stubs: HashMap<String, Arc<Stub>>,
    /// Handler instances.
    services: HashMap<String, Arc<dyn WebService>>,
    classifier: Option<Arc<ClassifierService>>,
    inline_threshold: Option<usize>,
}

fn text<'a>(args: &'a [(String, SoapValue)], name: &str) -> &'a str {
    args.iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_text().ok())
        .unwrap_or("")
}

impl Replayer {
    /// Replay onto the handler instances `services`, with `classifier`
    /// standing in for theirs when given (its model cache is read).
    /// `inline_threshold` is the data plane's threshold when the
    /// workload runs with the data plane on.
    pub fn new(
        services: Vec<Arc<dyn WebService>>,
        classifier: Option<Arc<ClassifierService>>,
        inline_threshold: Option<usize>,
    ) -> Replayer {
        let mut services: HashMap<String, Arc<dyn WebService>> = services
            .into_iter()
            .map(|s| (s.name().to_string(), s))
            .collect();
        if let Some(c) = &classifier {
            services.insert("Classifier".into(), Arc::clone(c) as Arc<dyn WebService>);
        }
        let container = ServiceContainer::new("replay");
        let stubs = services
            .keys()
            .map(|name| {
                let stub = Arc::new(Stub {
                    name: name.clone(),
                    response: Mutex::new(SoapValue::Null),
                });
                container.deploy(Arc::clone(&stub) as Arc<dyn WebService>);
                (name.clone(), stub)
            })
            .collect();
        Replayer {
            container,
            stubs,
            services,
            classifier,
            inline_threshold,
        }
    }

    /// Replay every layer call of `call` under `parent`, the span that
    /// made the real call.
    pub fn replay(&self, call: &Call, parent: SpanId, tr: &mut Tracer) {
        // Payloads the data plane may pass by reference.
        let eligible = |v: &SoapValue| {
            self.inline_threshold
                .is_some_and(|t| v.as_text().is_ok_and(|s| s.len() >= t))
        };
        let payloads = call.args.iter().map(|(_, v)| v);
        for v in payloads.chain([&call.response]).filter(|v| eligible(v)) {
            tr.count("dataplane.eligible", 1);
            black_box(tr.time("dataplane.hash", parent, || content_ref(v)));
        }

        // A payload sent by reference is in the receiving host's
        // attachment store; put it in the replay container's.
        let store = self.container.attachments();
        let wire_args = call
            .args
            .iter()
            .map(|(n, v)| {
                match (call.by_ref && eligible(v))
                    .then(|| content_ref(v))
                    .flatten()
                {
                    Some(cr) => {
                        if let Some(payload) = Payload::from_value(v) {
                            store.insert(cr.hash, payload);
                        }
                        (
                            n.clone(),
                            SoapValue::DataRef {
                                hash: cr.hash,
                                len: cr.len,
                                kind: cr.kind,
                            },
                        )
                    }
                    _ => (n.clone(), v.clone()),
                }
            })
            .collect();
        let request = SoapCall {
            service: call.service.clone(),
            operation: call.operation.clone(),
            args: wire_args,
            trace_parent: None,
        };
        let response = SoapResponse::Value(call.response.clone());
        let request_xml = tr.time("soap.encode", parent, || request.to_envelope());
        let response_xml = tr.time("soap.encode", parent, || {
            response.to_envelope(&call.operation)
        });
        tr.count(
            "soap.bytes",
            (request_xml.len() + response_xml.len()) as u64,
        );
        let _ = black_box(tr.time("soap.decode", parent, || {
            SoapCall::from_envelope(&request_xml)
        }));
        let _ = black_box(tr.time("soap.decode", parent, || {
            SoapResponse::from_envelope(&response_xml)
        }));

        // Dispatch the call as it crossed the wire; the stub hands back
        // the recorded response, so the span holds no handler run.
        if let Some(stub) = self.stubs.get(&call.service) {
            *stub.response.lock().expect(POISONED) = call.response.clone();
        }
        black_box(tr.time("container.dispatch", parent, || {
            self.container.dispatch(&request)
        }));

        let Some(service) = self.services.get(&call.service) else {
            return;
        };
        let misses = |r: &Replayer| {
            r.classifier
                .as_ref()
                .map_or(0, |c| c.cache().model_stats().misses)
        };
        let before = misses(self);
        let handler = tr.open("handler.invoke", Some(parent));
        black_box(service.invoke(&call.operation, &call.args).ok());
        tr.close(handler);
        let missed = misses(self) > before;
        self.replay_kernel(call, missed, handler, tr);
    }

    /// Parse what the handler parsed, then run its mining call on the
    /// parsed dataset.
    fn replay_kernel(&self, call: &Call, missed: bool, handler: SpanId, tr: &mut Tracer) {
        let args = &call.args;
        let parse = |tr: &mut Tracer, arff: &str, class: &str| -> Option<Dataset> {
            let mut ds = tr
                .time("arff.parse", handler, || dm_data::arff::parse_arff(arff))
                .ok()?;
            if !class.is_empty() {
                ds.set_class_by_name(class).ok()?;
            }
            Some(ds)
        };
        let train = |name: &str, options: &str, ds: &Dataset| -> Option<Box<dyn Classifier>> {
            let mut model = make_classifier(name).ok()?;
            for (flag, value) in parse_options_string(options) {
                model.set_option(&flag, &value).ok()?;
            }
            model.train(ds).ok()?;
            Some(model)
        };
        match (call.service.as_str(), call.operation.as_str()) {
            ("UrlReader", "readArff") => {
                if let Ok(arff) = call.response.as_text() {
                    black_box(parse(tr, arff, ""));
                }
            }
            ("J48", "classify") => {
                let Some(ds) = parse(tr, text(args, "dataset"), text(args, "attribute")) else {
                    return;
                };
                tr.time("kernel.train", handler, || {
                    train("J48", text(args, "options"), &ds).map(|m| black_box(m.describe()))
                });
            }
            ("Classifier", "classifyInstance" | "classifyGraph") if missed => {
                let Some(ds) = parse(tr, text(args, "dataset"), text(args, "attribute")) else {
                    return;
                };
                let name = text(args, "classifier");
                black_box(tr.time("kernel.train", handler, || {
                    train(name, text(args, "options"), &ds)
                }));
            }
            ("Classifier", "classifyInstances") => {
                let (name, options) = (text(args, "classifier"), text(args, "options"));
                let attribute = text(args, "attribute");
                let model = if missed {
                    let Some(ds) = parse(tr, text(args, "dataset"), attribute) else {
                        return;
                    };
                    tr.time("kernel.train", handler, || train(name, options, &ds))
                } else {
                    dm_data::arff::parse_arff(text(args, "dataset"))
                        .ok()
                        .and_then(|mut ds| {
                            ds.set_class_by_name(attribute).ok()?;
                            train(name, options, &ds)
                        })
                };
                let Some(batch) = parse(tr, text(args, "instances"), attribute) else {
                    return;
                };
                if let Some(model) = model {
                    black_box(
                        tr.time("kernel.train", handler, || model.predict_batch(&batch))
                            .ok(),
                    );
                }
            }
            ("Clusterer", "cluster") => {
                let Some(ds) = parse(tr, text(args, "dataset"), "") else {
                    return;
                };
                tr.time("kernel.train", handler, || {
                    let mut c = make_clusterer(text(args, "clusterer")).ok()?;
                    for (flag, value) in parse_options_string(text(args, "options")) {
                        c.set_option(&flag, &value).ok()?;
                    }
                    c.build(&ds).ok()?;
                    Some(black_box(c))
                });
            }
            ("AttributeSelection", "select") => {
                let Some(ds) = parse(tr, text(args, "dataset"), text(args, "attribute")) else {
                    return;
                };
                black_box(tr.time("kernel.train", handler, || {
                    dm_algorithms::attrsel::run_approach(text(args, "approach"), &ds, 7)
                }))
                .ok();
            }
            ("Preprocess", "normalize") => {
                let Some(ds) = parse(tr, text(args, "dataset"), "") else {
                    return;
                };
                black_box(tr.time("kernel.train", handler, || Normalize::fit(&ds).apply(&ds))).ok();
            }
            ("Preprocess", "discretize") => {
                let Some(ds) = parse(tr, text(args, "dataset"), text(args, "class")) else {
                    return;
                };
                let bins = args
                    .iter()
                    .find(|(n, _)| n == "bins")
                    .and_then(|(_, v)| v.as_int().ok())
                    .unwrap_or(10)
                    .clamp(2, 1000) as usize;
                black_box(tr.time("kernel.train", handler, || {
                    Discretize::fit(&ds, bins).and_then(|f| f.apply(&ds))
                }))
                .ok();
            }
            ("DataConversion", "summary") => {
                let Some(ds) = parse(tr, text(args, "dataset"), "") else {
                    return;
                };
                black_box(tr.time("kernel.train", handler, || {
                    DatasetSummary::of(&ds).to_table_string()
                }));
            }
            _ => {}
        }
    }
}
