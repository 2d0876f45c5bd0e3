//! `mining_session`: one dataset-bearing request per op, through a
//! `ClientChannel` to one warm single-host toolkit.
//!
//! The request mix (eight operations, equally likely) and dataset are
//! drawn from the seed. The dataset pool
//! holds eight ARFF texts (breast-cancer plus seeded synthetics at
//! several sizes); about a quarter of requests instead carry a dataset
//! generated for that request alone, so any dataset or model cache
//! sees both repeated and never-seen content. `classifyInstance`
//! requests rotate through 40 option strings, more than the 32-entry
//! model cache holds.

use crate::replay::{Call, Replayer};
use crate::trace::{SpanId, Tracer};
use crate::{pool_busy, stream, unit, Metric, OpOutcome, Workload};
use dm_data::arff::write_arff;
use dm_data::corpus::{breast_cancer_arff, gaussian_blobs, nominal_classification, BlobSpec};
use dm_data::Dataset;
use dm_services::classifier_ws::ClassifierService;
use dm_services::client::{ClassifierClient, ClientChannel};
use dm_wsrf::container::WebService;
use dm_wsrf::dataplane::fingerprint;
use dm_wsrf::soap::SoapValue;
use faehim::Toolkit;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Operations in the mix. Each request draws one uniformly: no usage
/// log weights them, so none is favoured.
const MIX: [Kind; 8] = [
    Kind::J48Classify,
    Kind::ClassifyInstance,
    Kind::ClassifyInstances,
    Kind::Cluster,
    Kind::Select,
    Kind::Normalize,
    Kind::Discretize,
    Kind::Summary,
];

/// Share of requests that carry a never-seen dataset.
const FRESH_SHARE: f64 = 0.25;

/// J48 option strings the Classifier requests rotate through.
fn rotation() -> Vec<String> {
    let mut out = Vec::new();
    for c in ["0.1", "0.15", "0.2", "0.25", "0.3"] {
        for m in 1..=8 {
            out.push(format!("-C {c} -M {m}"));
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    J48Classify,
    ClassifyInstance,
    ClassifyInstances,
    Cluster,
    Select,
    Normalize,
    Discretize,
    Summary,
}

impl Kind {
    fn endpoint(self) -> (&'static str, &'static str) {
        match self {
            Kind::J48Classify => ("J48", "classify"),
            Kind::ClassifyInstance => ("Classifier", "classifyInstance"),
            Kind::ClassifyInstances => ("Classifier", "classifyInstances"),
            Kind::Cluster => ("Clusterer", "cluster"),
            Kind::Select => ("AttributeSelection", "select"),
            Kind::Normalize => ("Preprocess", "normalize"),
            Kind::Discretize => ("Preprocess", "discretize"),
            Kind::Summary => ("DataConversion", "summary"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::J48Classify => "J48.classify",
            Kind::ClassifyInstance => "classifyInstance",
            Kind::ClassifyInstances => "classifyInstances",
            Kind::Cluster => "cluster",
            Kind::Select => "select",
            Kind::Normalize => "normalize",
            Kind::Discretize => "discretize",
            Kind::Summary => "summary",
        }
    }
}

/// An ARFF text and the name of its class attribute.
struct Arff {
    text: Arc<str>,
    class: &'static str,
}

fn arff(ds: &Dataset, class: &'static str) -> Arff {
    Arff {
        text: write_arff(ds).into(),
        class,
    }
}

fn blobs(per_blob: usize, seed: u64) -> Dataset {
    let blob = |center: Vec<f64>| BlobSpec {
        center,
        stddev: 0.8,
        count: per_blob,
    };
    gaussian_blobs(
        &[
            blob(vec![0.0, 0.0, 0.0, 0.0]),
            blob(vec![4.0, 4.0, 0.0, 1.0]),
            blob(vec![0.0, 4.0, 4.0, 2.0]),
        ],
        seed,
    )
}

/// The seeded pool of repeated datasets.
fn pool(seed: u64) -> Vec<Arff> {
    let s = |k: u64| stream(seed, 0x100 + k);
    vec![
        Arff {
            text: breast_cancer_arff().into(),
            class: "Class",
        },
        arff(&nominal_classification(200, 6, 3, 2, 0.1, s(1)), "class"),
        arff(&nominal_classification(400, 6, 3, 2, 0.1, s(2)), "class"),
        arff(&nominal_classification(800, 6, 3, 2, 0.1, s(3)), "class"),
        arff(&nominal_classification(300, 10, 4, 3, 0.1, s(4)), "class"),
        arff(&nominal_classification(600, 10, 4, 3, 0.1, s(5)), "class"),
        arff(&blobs(60, s(6)), "cluster"),
        arff(&blobs(150, s(7)), "cluster"),
    ]
}

/// One request, ready to send.
pub struct Request {
    kind: Kind,
    /// Identity of the request's content: `(kind, dataset, options)`,
    /// where a never-seen dataset gets an id of its own.
    key: (Kind, u64, String),
    args: Vec<(String, SoapValue)>,
}

/// The `mining_session` workload.
pub struct MiningSession {
    toolkit: Toolkit,
    channel: ClientChannel,
    seed: u64,
    pool: Vec<Arff>,
    rotation: Vec<String>,
    classifier_requests: u64,
    first_answers: HashMap<(Kind, u64, String), u128>,
    replay: Option<(Replayer, Vec<(Call, SpanId)>)>,
    pool_busy_start: Duration,
}

fn suite() -> Vec<Arc<dyn WebService>> {
    use dm_services::prelude::J48Service;
    vec![
        Arc::new(ClassifierService::new()),
        Arc::new(J48Service::new().expect("J48 service starts")),
        Arc::new(dm_services::clusterer_ws::ClustererService::new()),
        Arc::new(dm_services::attrsel_ws::AttributeSelectionService::new()),
        Arc::new(dm_services::preprocess_ws::PreprocessService::new()),
        Arc::new(dm_services::convert_ws::DataConversionService::new()),
        Arc::new(dm_services::convert_ws::UrlReaderService::with_standard_corpus()),
    ]
}

/// `(lookups, hits)` of the deployed Classifier's model cache since the
/// toolkit was provisioned.
fn model_cache(toolkit: &Toolkit) -> Result<(u64, u64), String> {
    let (model, _) = toolkit
        .classifier_client()
        .get_cache_stats()
        .map_err(|e| format!("getCacheStats: {e}"))?;
    Ok((model.lookups, model.hits))
}

impl Workload for MiningSession {
    type Input = Request;
    const PINNED_OPS: u64 = 1024;
    const OPS: u64 = 8_000;
    const LAYERS: &'static [&'static str] = &[
        "transport.invoke_us",
        "transport.unattributed_us",
        "soap.encode_us",
        "soap.decode_us",
        "soap.kib_per_op",
        "container.dispatch_us",
        "handler.invoke_us",
        "arff.parse_us",
        "kernel.train_us",
        "model_cache.hit_ratio",
        "pool.busy_frac",
        "monitor.events",
        "unattributed_us",
        "trace.overhead_frac",
    ];

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let toolkit = Toolkit::new().map_err(|e| e.to_string())?;
        let channel = ClientChannel::new(toolkit.network(), toolkit.primary_host());
        // Warm-up: one round trip that touches no cache.
        ClassifierClient::new(toolkit.network(), toolkit.primary_host())
            .get_classifiers()
            .map_err(|e| format!("warm-up: {e}"))?;
        let replay = tr.enabled().then(|| {
            let classifier = Arc::new(ClassifierService::new());
            (Replayer::new(suite(), Some(classifier), None), Vec::new())
        });
        Ok(MiningSession {
            toolkit,
            channel,
            seed,
            pool: Vec::new(),
            rotation: rotation(),
            classifier_requests: 0,
            first_answers: HashMap::new(),
            replay,
            pool_busy_start: pool_busy(),
        })
    }

    fn input(&mut self, i: u64) -> Result<Request, String> {
        // The pool is benchmark input, not provisioning: generate it
        // outside the set-up timing.
        if self.pool.is_empty() {
            self.pool = pool(self.seed);
        }
        let s = stream(self.seed, 0x200);
        let kind = MIX[(unit(s, 3 * i) * MIX.len() as f64) as usize];
        let fresh = unit(s, 3 * i + 1) < FRESH_SHARE;
        let (dataset_id, data) = if fresh {
            let ds_seed = stream(self.seed, 0x300 + i);
            let data = if i.is_multiple_of(2) {
                arff(
                    &nominal_classification(200 + 150 * (i % 3) as usize, 6, 3, 2, 0.1, ds_seed),
                    "class",
                )
            } else {
                arff(&blobs(60 + 30 * (i % 3) as usize, ds_seed), "cluster")
            };
            (u64::MAX - i, data)
        } else {
            let k = (unit(s, 3 * i + 2) * self.pool.len() as f64) as usize;
            let d = &self.pool[k];
            (
                k as u64,
                Arff {
                    text: Arc::clone(&d.text),
                    class: d.class,
                },
            )
        };
        // Batch scoring keeps the default options, so its models repeat
        // and hit the cache; single-instance requests rotate past it.
        let options = match kind {
            Kind::ClassifyInstance => {
                let o = &self.rotation[(self.classifier_requests % 40) as usize];
                self.classifier_requests += 1;
                o.clone()
            }
            _ => String::new(),
        };
        let text = |v: &str| SoapValue::Text(v.to_string());
        let dataset = SoapValue::Text(data.text.to_string());
        let args: Vec<(String, SoapValue)> = match kind {
            Kind::J48Classify => vec![
                ("dataset".into(), dataset),
                ("attribute".into(), text(data.class)),
                ("options".into(), text(&options)),
            ],
            Kind::ClassifyInstance => vec![
                ("dataset".into(), dataset),
                ("classifier".into(), text("J48")),
                ("options".into(), text(&options)),
                ("attribute".into(), text(data.class)),
            ],
            Kind::ClassifyInstances => vec![
                ("dataset".into(), dataset.clone()),
                ("classifier".into(), text("J48")),
                ("options".into(), text(&options)),
                ("attribute".into(), text(data.class)),
                ("instances".into(), dataset),
            ],
            Kind::Cluster => vec![
                ("dataset".into(), dataset),
                ("clusterer".into(), text("SimpleKMeans")),
                ("options".into(), text("")),
            ],
            Kind::Select => vec![
                ("dataset".into(), dataset),
                ("approach".into(), text("InfoGain+Ranker")),
                ("attribute".into(), text(data.class)),
            ],
            Kind::Normalize | Kind::Summary => vec![("dataset".into(), dataset)],
            Kind::Discretize => vec![
                ("dataset".into(), dataset),
                ("bins".into(), SoapValue::Int(5)),
                ("class".into(), text(data.class)),
            ],
        };
        Ok(Request {
            kind,
            key: (kind, dataset_id, options),
            args,
        })
    }

    fn op(&mut self, i: u64, req: Request, tr: &mut Tracer) -> Result<OpOutcome, String> {
        let net = self.toolkit.network();
        let (service, operation) = req.kind.endpoint();
        let kind = req.kind.name();
        let kept = self.replay.as_ref().map(|_| req.args.clone());
        let virt_start = net.virtual_time();
        let span = tr.open("transport.invoke", Some(tr.op_span()));
        let answer = self.channel.invoke(service, operation, req.args);
        tr.close(span);
        let virt = net.virtual_time() - virt_start;
        let value = answer.map_err(|e| format!("op {i} {service}.{operation}: {e}"))?;
        let print = fingerprint(&value);
        match self.first_answers.entry(req.key) {
            Entry::Occupied(first) if *first.get() != print => {
                return Err(format!(
                    "op {i} {service}.{operation} answered {:?} differently from its first \
                     cold answer",
                    first.key()
                ));
            }
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert(print);
            }
        }
        if let (Some((_, pending)), Some(args)) = (self.replay.as_mut(), kept) {
            pending.push((Call::new(service, operation, args, value), span));
        }
        Ok(OpOutcome {
            virt,
            failed: false,
            output: print,
            kind,
        })
    }

    fn replay(&mut self, tr: &mut Tracer) {
        if let Some((replayer, pending)) = self.replay.as_mut() {
            for (call, span) in pending.drain(..) {
                replayer.replay(&call, span, tr);
            }
        }
    }

    fn wire_bytes(&self) -> u64 {
        self.toolkit.wire_stats().bytes
    }

    fn finish(
        &mut self,
        _ops: u64,
        elapsed: Duration,
        _tr: &Tracer,
    ) -> Result<Vec<Metric>, String> {
        let busy = (pool_busy() - self.pool_busy_start).as_secs_f64();
        let (lookups, hits) = model_cache(&self.toolkit)?;
        Ok(vec![
            Metric::new(
                "pool.busy_frac",
                busy / (2.0 * elapsed.as_secs_f64()),
                "frac",
            ),
            Metric::new(
                "model_cache.hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "monitor.events",
                self.toolkit.network().monitor().len() as f64,
                "count",
            ),
        ])
    }
}
