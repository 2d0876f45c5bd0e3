//! The general Classifier Web Service (§4.1):
//!
//! > "we have opted to implement a general Classifier Web Service to
//! > act as a wrapper for a complete set of classifiers available in
//! > WEKA. The general Classifier Web Service has the following
//! > operations: (1) getClassifiers, (2) getOptions and
//! > (3) ClassifyInstance."
//!
//! `classifyInstance` takes the paper's four inputs — dataset (ARFF),
//! classifier name, options string, and the attribute to classify on —
//! and returns the textual model. `classifyGraph` returns the tree as
//! SVG when the model is tree-shaped, and `crossValidate` covers the
//! "testing the discovered knowledge" requirement.
//!
//! Each call looks its model up once in the [`ModelCache`]. A cached
//! model keeps its textual model and its SVG, so a repeated
//! `classifyInstance` or `classifyGraph` returns the kept text, and
//! `classifyInstances` scores the shared model without a lock.

use crate::dataset_cache::{content_hash, with_class, DatasetCache};
use crate::model_cache::{eval_key, model_key, CachedModel, ModelCache, SharedModel};
use crate::support::{algo_fault, int_arg, opt_text_arg, text_arg, traced_handler};
use dm_algorithms::options::parse_options_string;
use dm_algorithms::registry::{classifier_names, make_classifier};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::dataplane::CacheStats;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;

/// The general Classifier Web Service.
#[derive(Debug, Default)]
pub struct ClassifierService {
    cache: ModelCache,
    datasets: DatasetCache,
}

impl ClassifierService {
    /// Create the service with the default model/evaluation cache.
    pub fn new() -> ClassifierService {
        ClassifierService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> ClassifierService {
        ClassifierService {
            cache: ModelCache::default(),
            datasets,
        }
    }

    /// The trained-model / evaluation cache (counters, clearing).
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// Train (or fetch from cache) the model described by the standard
    /// four arguments: dataset, classifier, options, attribute.
    fn trained_model(&self, args: &[(String, SoapValue)]) -> Result<SharedModel, ServiceFault> {
        let arff = text_arg(args, "dataset")?;
        let name = text_arg(args, "classifier")?;
        let options = opt_text_arg(args, "options")?.unwrap_or("");
        let attribute = text_arg(args, "attribute")?;
        let hash = content_hash(arff);
        let key = model_key(name, options, attribute, hash);
        if let Some(model) = self.cache.get_model(key) {
            return Ok(model);
        }
        let ds = with_class(self.datasets.decode_hashed(arff, hash)?, attribute)?;
        let mut model = make_classifier(name).map_err(algo_fault)?;
        for (flag, value) in parse_options_string(options) {
            model.set_option(&flag, &value).map_err(algo_fault)?;
        }
        model.train(&ds).map_err(algo_fault)?;
        let shared: SharedModel = Arc::new(CachedModel::new(model));
        self.cache.insert_model(key, Arc::clone(&shared));
        Ok(shared)
    }
}

fn stats_row(stats: &CacheStats) -> SoapValue {
    SoapValue::List(vec![
        SoapValue::Int(stats.lookups as i64),
        SoapValue::Int(stats.hits as i64),
        SoapValue::Int(stats.misses as i64),
        SoapValue::Int(stats.insertions as i64),
        SoapValue::Int(stats.evictions as i64),
        SoapValue::Int(stats.entries as i64),
    ])
}

impl WebService for ClassifierService {
    fn name(&self) -> &str {
        "Classifier"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Classifier", "")
            .operation(
                Operation::new("getClassifiers", vec![], Part::new("classifiers", "list"))
                    .doc("return the list of available classifiers known to the service"),
            )
            .operation(
                Operation::new(
                    "getOptions",
                    vec![Part::new("classifier", "string")],
                    Part::new("options", "list"),
                )
                .doc("return the required and optional properties of a classifier"),
            )
            .operation(
                Operation::new(
                    "classifyInstance",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("classifier", "string"),
                        Part::new("options", "string"),
                        Part::new("attribute", "string"),
                    ],
                    Part::new("model", "string"),
                )
                .doc("train the named classifier on an ARFF dataset and return the textual model"),
            )
            .operation(
                Operation::new(
                    "classifyGraph",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("classifier", "string"),
                        Part::new("options", "string"),
                        Part::new("attribute", "string"),
                    ],
                    Part::new("graph", "string"),
                )
                .doc("train and return a graphical (SVG) rendering of a tree-shaped model"),
            )
            .operation(
                Operation::new(
                    "classifyInstances",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("classifier", "string"),
                        Part::new("options", "string"),
                        Part::new("attribute", "string"),
                        Part::new("instances", "string"),
                    ],
                    Part::new("predictions", "list"),
                )
                .doc(
                    "train (or reuse) the model and score a whole batch of instances in one \
                     envelope; returns predicted class labels in row order",
                ),
            )
            .operation(
                Operation::new(
                    "crossValidate",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("classifier", "string"),
                        Part::new("options", "string"),
                        Part::new("attribute", "string"),
                        Part::new("folds", "long"),
                    ],
                    Part::new("evaluation", "string"),
                )
                .doc("stratified k-fold cross-validation summary"),
            )
            .operation(
                Operation::new("getCacheStats", vec![], Part::new("stats", "list"))
                    .doc("trained-model and evaluation cache counters"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        traced_handler(self.name(), operation, || match operation {
            "getClassifiers" => Ok(SoapValue::List(
                classifier_names()
                    .into_iter()
                    .map(|n| SoapValue::Text(n.to_string()))
                    .collect(),
            )),
            "getOptions" => {
                let name = text_arg(args, "classifier")?;
                let model = make_classifier(name).map_err(algo_fault)?;
                Ok(SoapValue::List(
                    model
                        .option_descriptors()
                        .into_iter()
                        .map(|d| {
                            SoapValue::List(vec![
                                SoapValue::Text(d.flag.to_string()),
                                SoapValue::Text(d.name.to_string()),
                                SoapValue::Text(d.description.to_string()),
                                SoapValue::Text(d.default.clone()),
                            ])
                        })
                        .collect(),
                ))
            }
            "classifyInstance" => {
                let model = self.trained_model(args)?;
                Ok(SoapValue::Text(model.text().to_string()))
            }
            "classifyGraph" => {
                let model = self.trained_model(args)?;
                let svg = model.svg().ok_or_else(|| {
                    ServiceFault::client(format!(
                        "classifier {:?} does not produce a tree graph",
                        model.model().name()
                    ))
                })?;
                Ok(SoapValue::Text(svg.to_string()))
            }
            "classifyInstances" => {
                // One envelope, N instances: amortise the SOAP round
                // trip and score rows in parallel on the compute pool.
                let model = self.trained_model(args)?;
                let attribute = text_arg(args, "attribute")?;
                let instances_arff = text_arg(args, "instances")?;
                let batch = self.datasets.decode_with_class(instances_arff, attribute)?;
                let labels = batch
                    .class_attribute()
                    .map_err(crate::support::data_fault)?
                    .labels()
                    .to_vec();
                let predictions = model.model().predict_batch(&batch).map_err(algo_fault)?;
                let mut out = Vec::with_capacity(predictions.len());
                for idx in predictions {
                    let label = labels.get(idx).ok_or_else(|| {
                        ServiceFault::server(format!("predicted class index {idx} out of range"))
                    })?;
                    out.push(SoapValue::Text(label.clone()));
                }
                Ok(SoapValue::List(out))
            }
            "crossValidate" => {
                let arff = text_arg(args, "dataset")?;
                let name = text_arg(args, "classifier")?;
                let options = opt_text_arg(args, "options")?.unwrap_or("").to_string();
                let attribute = text_arg(args, "attribute")?;
                let folds_arg = int_arg(args, "folds")?;
                let hash = content_hash(arff);
                let key = eval_key(name, &options, attribute, folds_arg, hash);
                if let Some(summary) = self.cache.get_eval(key) {
                    return Ok(SoapValue::Text(summary.to_string()));
                }
                let folds = folds_arg.clamp(2, 100) as usize;
                let ds = with_class(self.datasets.decode_hashed(arff, hash)?, attribute)?;
                let name = name.to_string();
                let eval = dm_algorithms::eval::cross_validate(
                    || {
                        let mut m = make_classifier(&name)?;
                        for (flag, value) in parse_options_string(&options) {
                            m.set_option(&flag, &value)?;
                        }
                        Ok(m)
                    },
                    &ds,
                    folds,
                    1,
                )
                .map_err(algo_fault)?;
                let summary = eval.summary();
                self.cache.insert_eval(key, Arc::from(summary.as_str()));
                Ok(SoapValue::Text(summary))
            }
            "getCacheStats" => Ok(SoapValue::List(
                self.cache_stats()
                    .iter()
                    .map(|(_, stats)| stats_row(stats))
                    .collect(),
            )),
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        })
    }

    /// The model and evaluation caches' counters, in `getCacheStats`
    /// row order.
    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        vec![
            ("model", self.cache.model_stats()),
            ("eval", self.cache.eval_stats()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::corpus::breast_cancer_arff;

    fn args_for(classifier: &str) -> Vec<(String, SoapValue)> {
        vec![
            ("dataset".to_string(), SoapValue::Text(breast_cancer_arff())),
            (
                "classifier".to_string(),
                SoapValue::Text(classifier.to_string()),
            ),
            ("options".to_string(), SoapValue::Text(String::new())),
            (
                "attribute".to_string(),
                SoapValue::Text("Class".to_string()),
            ),
        ]
    }

    #[test]
    fn get_classifiers_lists_registry() {
        let s = ClassifierService::new();
        let v = s.invoke("getClassifiers", &[]).unwrap();
        let list = v.as_list().unwrap();
        assert!(list.len() >= 13);
        assert!(list.iter().any(|x| x.as_text().unwrap() == "J48"));
    }

    #[test]
    fn get_options_for_j48() {
        let s = ClassifierService::new();
        let v = s
            .invoke(
                "getOptions",
                &[("classifier".to_string(), SoapValue::Text("J48".into()))],
            )
            .unwrap();
        let opts = v.as_list().unwrap();
        assert_eq!(opts.len(), 3); // -C, -M, -U
        let first = opts[0].as_list().unwrap();
        assert_eq!(first[0].as_text().unwrap(), "-C");
    }

    #[test]
    fn classify_instance_breast_cancer_j48() {
        // The case study path: classify the breast-cancer set with J48.
        let s = ClassifierService::new();
        let v = s.invoke("classifyInstance", &args_for("J48")).unwrap();
        let text = v.as_text().unwrap();
        assert!(text.contains("node-caps"), "root split missing:\n{text}");
        assert!(text.contains("Number of Leaves"));
    }

    #[test]
    fn classify_with_options() {
        let s = ClassifierService::new();
        let mut args = args_for("J48");
        args[2].1 = SoapValue::Text("-M 30".into());
        let v = s.invoke("classifyInstance", &args).unwrap();
        assert!(v.as_text().unwrap().contains("J48"));
    }

    #[test]
    fn classify_graph_returns_svg() {
        let s = ClassifierService::new();
        let v = s.invoke("classifyGraph", &args_for("J48")).unwrap();
        let svg = v.as_text().unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("node-caps"));
    }

    #[test]
    fn graph_for_non_tree_model_faults() {
        let s = ClassifierService::new();
        let err = s
            .invoke("classifyGraph", &args_for("NaiveBayes"))
            .unwrap_err();
        assert_eq!(err.code, "Client");
        // The cached model keeps no SVG: every call faults alike.
        for _ in 0..2 {
            assert_eq!(
                s.invoke("classifyGraph", &args_for("NaiveBayes"))
                    .unwrap_err(),
                err
            );
        }
        let stats = s.cache().model_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn cross_validate_summary() {
        let s = ClassifierService::new();
        let mut args = args_for("ZeroR");
        args.push(("folds".to_string(), SoapValue::Int(5)));
        let v = s.invoke("crossValidate", &args).unwrap();
        let text = v.as_text().unwrap();
        assert!(text.contains("Correctly Classified"));
        assert!(text.contains("Confusion Matrix"));
    }

    #[test]
    fn unknown_classifier_faults() {
        let s = ClassifierService::new();
        let err = s.invoke("classifyInstance", &args_for("C5.0")).unwrap_err();
        assert_eq!(err.code, "Client");
    }

    #[test]
    fn bad_dataset_faults() {
        let s = ClassifierService::new();
        let args = vec![
            ("dataset".to_string(), SoapValue::Text("not arff".into())),
            ("classifier".to_string(), SoapValue::Text("J48".into())),
            ("options".to_string(), SoapValue::Text(String::new())),
            ("attribute".to_string(), SoapValue::Text("Class".into())),
        ];
        assert_eq!(
            s.invoke("classifyInstance", &args).unwrap_err().code,
            "Client"
        );
    }

    #[test]
    fn wsdl_has_seven_operations() {
        let s = ClassifierService::new();
        let wsdl = s.wsdl();
        assert_eq!(wsdl.operations.len(), 7);
        assert_eq!(
            wsdl.find_operation("classifyInstance")
                .unwrap()
                .inputs
                .len(),
            4
        );
        assert_eq!(
            wsdl.find_operation("classifyInstances")
                .unwrap()
                .inputs
                .len(),
            5
        );
        assert!(wsdl.find_operation("getCacheStats").is_ok());
    }

    #[test]
    fn classify_instances_batch_matches_single_scoring() {
        let s = ClassifierService::new();
        let mut args = args_for("J48");
        // Score the training set itself as the batch.
        args.push((
            "instances".to_string(),
            SoapValue::Text(breast_cancer_arff()),
        ));
        let v = s.invoke("classifyInstances", &args).unwrap();
        let preds = v.as_list().unwrap();
        assert_eq!(preds.len(), 286);
        let valid = ["no-recurrence-events", "recurrence-events"];
        assert!(preds.iter().all(|p| valid.contains(&p.as_text().unwrap())));
        // Byte-identical envelopes at every pool size.
        for threads in [1, 2, 8] {
            let again = dm_algorithms::pool::with_threads(threads, || {
                s.invoke("classifyInstances", &args).unwrap()
            });
            assert_eq!(again, v, "threads={threads}");
        }
    }

    #[test]
    fn classify_instances_requires_instances_argument() {
        let s = ClassifierService::new();
        let err = s.invoke("classifyInstances", &args_for("J48")).unwrap_err();
        assert_eq!(err.code, "Client");
        assert!(err.message.contains("instances"));
    }

    #[test]
    fn repeat_classification_reuses_the_trained_model() {
        let s = ClassifierService::new();
        let cold = s.invoke("classifyInstance", &args_for("J48")).unwrap();
        // classifyGraph on the same (dataset, classifier, options,
        // attribute) reuses the cached model rather than retraining.
        s.invoke("classifyGraph", &args_for("J48")).unwrap();
        let warm = s.invoke("classifyInstance", &args_for("J48")).unwrap();
        assert_eq!(cold, warm, "cached model must reproduce the output");
        let stats = s.cache().model_stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        // The kept text and SVG equal a fresh service's cold renders.
        let cold_on_fresh = |operation: &str| {
            ClassifierService::new()
                .invoke(operation, &args_for("J48"))
                .unwrap()
        };
        for operation in ["classifyInstance", "classifyGraph"] {
            let warm = s.invoke(operation, &args_for("J48")).unwrap();
            assert_eq!(warm, cold_on_fresh(operation), "{operation}");
        }
    }

    #[test]
    fn concurrent_calls_share_one_model_without_a_lock() {
        let mut batch = args_for("J48");
        batch.push((
            "instances".to_string(),
            SoapValue::Text(breast_cancer_arff()),
        ));
        let calls = [
            ("classifyInstance", args_for("J48")),
            ("classifyGraph", args_for("J48")),
            ("classifyInstances", batch),
        ];
        let fresh = ClassifierService::new();
        let expected: Vec<SoapValue> = calls
            .iter()
            .map(|(operation, args)| fresh.invoke(operation, args).unwrap())
            .collect();
        let s = ClassifierService::new();
        s.invoke("classifyInstance", &args_for("J48")).unwrap();
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let (s, calls, expected) = (&s, &calls, &expected);
                scope.spawn(move || {
                    for round in 0..6 {
                        let i = (thread + round) % calls.len();
                        let (operation, args) = &calls[i];
                        let got = s.invoke(operation, args).unwrap();
                        assert_eq!(got, expected[i], "thread {thread}: {operation}");
                    }
                });
            }
        });
        let stats = s.cache().model_stats();
        assert_eq!((stats.misses, stats.hits), (1, 24));
    }

    #[test]
    fn changed_options_miss_the_model_cache() {
        let s = ClassifierService::new();
        s.invoke("classifyInstance", &args_for("J48")).unwrap();
        let mut args = args_for("J48");
        args[2].1 = SoapValue::Text("-M 30".into());
        s.invoke("classifyInstance", &args).unwrap();
        let stats = s.cache().model_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn cross_validation_results_are_cached() {
        let s = ClassifierService::new();
        let mut args = args_for("ZeroR");
        args.push(("folds".to_string(), SoapValue::Int(5)));
        let cold = s.invoke("crossValidate", &args).unwrap();
        let warm = s.invoke("crossValidate", &args).unwrap();
        assert_eq!(cold, warm);
        let stats = s.cache().eval_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cache_stats_operation_reports_counters() {
        let s = ClassifierService::new();
        s.invoke("classifyInstance", &args_for("J48")).unwrap();
        s.invoke("classifyInstance", &args_for("J48")).unwrap();
        let v = s.invoke("getCacheStats", &[]).unwrap();
        let rows = v.as_list().unwrap();
        assert_eq!(rows.len(), 2);
        let models = rows[0].as_list().unwrap();
        // [lookups, hits, misses, insertions, evictions, entries]
        assert_eq!(models[0], SoapValue::Int(2));
        assert_eq!(models[1], SoapValue::Int(1));
        assert_eq!(models[2], SoapValue::Int(1));
        assert_eq!(models[5], SoapValue::Int(1));
    }
}
