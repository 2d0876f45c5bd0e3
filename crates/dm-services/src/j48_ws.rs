//! The dedicated J48 Web Service (§4.1) with the §4.5 instance
//! lifecycle.
//!
//! Operations: `classify` (textual decision tree), `classifyGraph`
//! (SVG rendering — Figure 4), `predict` (label unseen instances with
//! the current model), and the lifecycle controls `setLifecycle` /
//! `getLifecycleStats` used by experiment E4.
//!
//! The model instance is managed by a [`LifecycleManager`]: under
//! `SerializePerCall` every invocation re-builds the J48 object from
//! its serialised state on disk and serialises it back afterwards —
//! exactly the behaviour the paper observed as "a significant
//! performance penalty" — while `InMemoryHarness` reproduces the
//! paper's fix.
//!
//! The service grows each tree once. It keeps the trees it has grown,
//! with their text and SVG, in a private LRU of
//! [`DEFAULT_MODEL_CAPACITY`] entries, keyed by
//! [`model_key`]`("J48", options, attribute, dataset)` where `options`
//! are the instance's options once the call's are applied (they stick
//! across calls, so the call's own string is not the key). A repeated
//! `classify` or `classifyGraph` neither parses nor trains: the
//! managed instance becomes a clone of the kept tree and the call
//! returns its kept text or SVG. The lifecycle is unchanged: hit or
//! miss, a call under `SerializePerCall` still restores the instance
//! and persists it, so E4's counters and `predict` see what training
//! would have left.
//!
//! A call applies its options and trains on a copy of the instance's
//! options, and the instance takes the copy only when the call
//! succeeds: a bad option or a failed training leaves it as it was,
//! and keeps nothing.

use crate::dataset_cache::{content_hash, with_class, DatasetCache};
use crate::model_cache::{model_key, CachedModel, DEFAULT_MODEL_CAPACITY};
use crate::support::{algo_fault, data_fault, opt_text_arg, text_arg};
use dm_algorithms::classifiers::{Classifier, J48};
use dm_algorithms::options::{parse_options_string, Configurable};
use dm_algorithms::state::Stateful;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::dataplane::{CacheStats, LruMap};
use dm_wsrf::lifecycle::{LifecycleManager, LifecyclePolicy};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;

/// The J48 Web Service.
pub struct J48Service {
    lifecycle: LifecycleManager,
    datasets: DatasetCache,
    /// The trees grown so far, with their text and SVG.
    trees: LruMap<u128, Arc<CachedModel<J48>>>,
}

impl J48Service {
    /// Create with the default Axis-like `SerializePerCall` lifecycle.
    pub fn new() -> Result<J48Service, dm_wsrf::WsError> {
        J48Service::with_policy(LifecyclePolicy::SerializePerCall)
    }

    /// Create with an explicit lifecycle policy.
    pub fn with_policy(policy: LifecyclePolicy) -> Result<J48Service, dm_wsrf::WsError> {
        J48Service::with_datasets(DatasetCache::default(), policy)
    }

    /// Create with `policy`, decoding datasets through `datasets`.
    pub(crate) fn with_datasets(
        datasets: DatasetCache,
        policy: LifecyclePolicy,
    ) -> Result<J48Service, dm_wsrf::WsError> {
        Ok(J48Service {
            lifecycle: LifecycleManager::new(policy)?,
            datasets,
            trees: LruMap::new(DEFAULT_MODEL_CAPACITY),
        })
    }

    /// `(serialisations, deserialisations, cache hits)` so far.
    pub fn lifecycle_stats(&self) -> (u64, u64, u64) {
        self.lifecycle.stats()
    }

    /// Run `f` against the managed J48 instance under the current
    /// lifecycle policy.
    fn with_model<R>(
        &self,
        f: impl FnOnce(&mut J48) -> Result<R, ServiceFault>,
    ) -> Result<R, ServiceFault> {
        self.lifecycle
            .with_instance(
                "j48-model",
                J48::new,
                |bytes| {
                    let mut model = J48::new();
                    model
                        .decode_state(bytes)
                        .map_err(|e| dm_wsrf::WsError::Store(e.to_string()))?;
                    Ok(model)
                },
                |model| model.encode_state(),
                f,
            )
            .map_err(|e| ServiceFault::server(e.to_string()))?
    }

    /// `classify` and `classifyGraph`: the tree the call's dataset,
    /// class attribute and options give, kept or grown now, rendered by
    /// `answer`. The dataset is looked up before the lifecycle runs, so
    /// one that does not decode or lacks the attribute faults without
    /// touching the instance, as it always has; the key needs the
    /// instance's options, so the tree is looked up inside.
    fn grow(
        &self,
        args: &[(String, SoapValue)],
        answer: impl FnOnce(&CachedModel<J48>) -> Result<String, ServiceFault>,
    ) -> Result<SoapValue, ServiceFault> {
        let arff = text_arg(args, "dataset")?;
        let attribute = text_arg(args, "attribute")?;
        let options = opt_text_arg(args, "options")?.unwrap_or("");
        let hash = content_hash(arff);
        let ds = self.datasets.decode_hashed(arff, hash)?;
        ds.attribute_index(attribute).map_err(data_fault)?;
        self.with_model(|model| {
            let mut next = model.untrained();
            for (flag, value) in parse_options_string(options) {
                next.set_option(&flag, &value).map_err(algo_fault)?;
            }
            let key = model_key("J48", &next.options_string(), attribute, hash);
            let tree = match self.trees.get(key) {
                Some(tree) => tree,
                None => {
                    next.train(&with_class(ds, attribute)?)
                        .map_err(algo_fault)?;
                    let tree = Arc::new(CachedModel::new(Box::new(next)));
                    self.trees.insert(key, Arc::clone(&tree));
                    tree
                }
            };
            let text = answer(&tree)?;
            *model = tree.model().clone();
            Ok(SoapValue::Text(text))
        })
    }
}

impl WebService for J48Service {
    fn name(&self) -> &str {
        "J48"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("J48", "")
            .operation(
                Operation::new(
                    "classify",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("attribute", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("model", "string"),
                )
                .doc("apply the J48 (C4.5) algorithm; returns the textual decision tree"),
            )
            .operation(
                Operation::new(
                    "classifyGraph",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("attribute", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("graph", "string"),
                )
                .doc("apply J48 and return the decision tree as an SVG graph"),
            )
            .operation(
                Operation::new(
                    "predict",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("attribute", "string"),
                    ],
                    Part::new("predictions", "list"),
                )
                .doc("label the given instances with the previously built tree"),
            )
            .operation(
                Operation::new(
                    "setLifecycle",
                    vec![Part::new("policy", "string")],
                    Part::new("ack", "string"),
                )
                .doc("switch between serialize-per-call and the in-memory harness (§4.5)"),
            )
            .operation(
                Operation::new("getLifecycleStats", vec![], Part::new("stats", "list"))
                    .doc("serialisations / deserialisations / cache hits"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        match operation {
            "classify" => self.grow(args, |tree| Ok(tree.text().to_string())),
            "classifyGraph" => self.grow(args, |tree| {
                tree.svg()
                    .map(str::to_string)
                    .ok_or_else(|| ServiceFault::server("training produced no tree"))
            }),
            "predict" => {
                let arff = text_arg(args, "dataset")?;
                let attribute = text_arg(args, "attribute")?;
                let ds = self.datasets.decode_with_class(arff, attribute)?;
                self.with_model(|model| {
                    let class_attr = ds.class_attribute().map_err(data_fault)?;
                    let labels: Vec<String> = class_attr.labels().to_vec();
                    let mut out = Vec::with_capacity(ds.num_instances());
                    for r in 0..ds.num_instances() {
                        let c = model.predict(&ds, r).map_err(algo_fault)?;
                        out.push(SoapValue::Text(
                            labels.get(c).cloned().unwrap_or_else(|| format!("#{c}")),
                        ));
                    }
                    Ok(SoapValue::List(out))
                })
            }
            "setLifecycle" => {
                let policy = text_arg(args, "policy")?;
                let policy = match policy {
                    "serialize-per-call" => LifecyclePolicy::SerializePerCall,
                    "in-memory-harness" => LifecyclePolicy::InMemoryHarness,
                    other => {
                        return Err(ServiceFault::client(format!(
                        "unknown lifecycle {other:?} (want serialize-per-call | in-memory-harness)"
                    )))
                    }
                };
                self.lifecycle.set_policy(policy);
                Ok(SoapValue::Text("ok".into()))
            }
            "getLifecycleStats" => {
                let (ser, de, hits) = self.lifecycle.stats();
                Ok(SoapValue::List(vec![
                    SoapValue::Int(ser as i64),
                    SoapValue::Int(de as i64),
                    SoapValue::Int(hits as i64),
                ]))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }

    /// The kept trees' counters.
    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        vec![("model", self.trees.stats())]
    }
}

#[cfg(test)]
mod kept_trees;

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::corpus::breast_cancer_arff;

    fn classify_args() -> Vec<(String, SoapValue)> {
        vec![
            ("dataset".to_string(), SoapValue::Text(breast_cancer_arff())),
            ("attribute".to_string(), SoapValue::Text("Class".into())),
            ("options".to_string(), SoapValue::Text(String::new())),
        ]
    }

    #[test]
    fn classify_reproduces_figure4_root() {
        let s = J48Service::new().unwrap();
        let v = s.invoke("classify", &classify_args()).unwrap();
        assert!(v.as_text().unwrap().contains("node-caps"));
    }

    #[test]
    fn classify_graph_svg() {
        let s = J48Service::new().unwrap();
        let v = s.invoke("classifyGraph", &classify_args()).unwrap();
        let svg = v.as_text().unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("node-caps"));
    }

    #[test]
    fn per_call_lifecycle_serialises_every_invocation() {
        let s = J48Service::new().unwrap();
        for _ in 0..3 {
            s.invoke("classify", &classify_args()).unwrap();
        }
        let (ser, de, hits) = s.lifecycle_stats();
        assert_eq!(ser, 3);
        assert_eq!(de, 2);
        assert_eq!(hits, 0);
    }

    #[test]
    fn harness_lifecycle_avoids_serialisation() {
        let s = J48Service::with_policy(LifecyclePolicy::InMemoryHarness).unwrap();
        for _ in 0..3 {
            s.invoke("classify", &classify_args()).unwrap();
        }
        let (ser, de, hits) = s.lifecycle_stats();
        assert_eq!(ser, 0);
        assert_eq!(de, 0);
        assert_eq!(hits, 2);
    }

    #[test]
    fn lifecycle_switch_via_operation() {
        let s = J48Service::new().unwrap();
        s.invoke(
            "setLifecycle",
            &[(
                "policy".to_string(),
                SoapValue::Text("in-memory-harness".into()),
            )],
        )
        .unwrap();
        s.invoke("classify", &classify_args()).unwrap();
        s.invoke("classify", &classify_args()).unwrap();
        let stats = s.invoke("getLifecycleStats", &[]).unwrap();
        let list = stats.as_list().unwrap();
        assert_eq!(list[0].as_int().unwrap(), 0); // no serialisations
        assert!(s
            .invoke(
                "setLifecycle",
                &[("policy".to_string(), SoapValue::Text("bogus".into()))]
            )
            .is_err());
    }

    #[test]
    fn predict_after_classify() {
        let s = J48Service::with_policy(LifecyclePolicy::InMemoryHarness).unwrap();
        s.invoke("classify", &classify_args()).unwrap();
        let v = s
            .invoke(
                "predict",
                &[
                    ("dataset".to_string(), SoapValue::Text(breast_cancer_arff())),
                    ("attribute".to_string(), SoapValue::Text("Class".into())),
                ],
            )
            .unwrap();
        let predictions = v.as_list().unwrap();
        assert_eq!(predictions.len(), 286);
        assert!(predictions.iter().all(|p| matches!(
            p.as_text().unwrap(),
            "no-recurrence-events" | "recurrence-events"
        )));
    }

    #[test]
    fn predict_persists_model_across_calls_per_call_policy() {
        // Under serialize-per-call, the trained tree must survive via
        // disk state between classify and predict.
        let s = J48Service::new().unwrap();
        s.invoke("classify", &classify_args()).unwrap();
        let v = s
            .invoke(
                "predict",
                &[
                    ("dataset".to_string(), SoapValue::Text(breast_cancer_arff())),
                    ("attribute".to_string(), SoapValue::Text("Class".into())),
                ],
            )
            .unwrap();
        assert_eq!(v.as_list().unwrap().len(), 286);
    }

    #[test]
    fn unknown_operation_faults() {
        let s = J48Service::new().unwrap();
        assert_eq!(s.invoke("bogus", &[]).unwrap_err().code, "Client");
    }
}
