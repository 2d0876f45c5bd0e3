//! The preprocessing Web Service — the "handling different types of
//! data" requirement (§3, category 1): discretisation, normalisation,
//! standardisation, missing-value replacement, attribute removal, and
//! resampling, each taking and returning ARFF so it slots anywhere in a
//! composed pipeline.

use crate::dataset_cache::{with_class, DatasetCache};
use crate::support::{data_fault, opt_text_arg, text_arg};
use dm_data::filters::{
    Discretize, Filter, Normalize, ReplaceMissing, Standardize, SupervisedDiscretize,
};
use dm_data::Dataset;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;

/// The preprocessing Web Service.
#[derive(Debug, Default)]
pub struct PreprocessService {
    datasets: DatasetCache,
}

impl PreprocessService {
    /// Create the service.
    pub fn new() -> PreprocessService {
        PreprocessService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> PreprocessService {
        PreprocessService { datasets }
    }
}

/// `ds` with its class set when `class` names one (an empty name sets
/// none).
fn set_class(ds: Arc<Dataset>, class: &str) -> Result<Arc<Dataset>, ServiceFault> {
    if class.is_empty() {
        Ok(ds)
    } else {
        Ok(Arc::new(with_class(ds, class)?))
    }
}

fn emit(ds: &Dataset) -> SoapValue {
    SoapValue::Text(dm_data::arff::write_arff(ds))
}

impl WebService for PreprocessService {
    fn name(&self) -> &str {
        "Preprocess"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Preprocess", "")
            .operation(
                Operation::new(
                    "normalize",
                    vec![Part::new("dataset", "string")],
                    Part::new("arff", "string"),
                )
                .doc("min-max scale every numeric attribute to [0, 1]"),
            )
            .operation(
                Operation::new(
                    "standardize",
                    vec![Part::new("dataset", "string")],
                    Part::new("arff", "string"),
                )
                .doc("z-score every numeric attribute"),
            )
            .operation(
                Operation::new(
                    "replaceMissing",
                    vec![Part::new("dataset", "string")],
                    Part::new("arff", "string"),
                )
                .doc("impute missing values with the mode/mean"),
            )
            .operation(
                Operation::new(
                    "discretize",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("bins", "long"),
                        Part::new("class", "string"),
                    ],
                    Part::new("arff", "string"),
                )
                .doc("equal-width binning of numeric attributes"),
            )
            .operation(
                Operation::new(
                    "discretizeSupervised",
                    vec![Part::new("dataset", "string"), Part::new("class", "string")],
                    Part::new("arff", "string"),
                )
                .doc("entropy/MDL (Fayyad-Irani) supervised discretisation"),
            )
            .operation(
                Operation::new(
                    "removeAttributes",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("attributes", "string"),
                    ],
                    Part::new("arff", "string"),
                )
                .doc("drop the named (comma-separated) attributes"),
            )
            .operation(
                Operation::new(
                    "resample",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("fraction", "double"),
                        Part::new("seed", "long"),
                    ],
                    Part::new("arff", "string"),
                )
                .doc("seeded random (sub)sample"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        let arff = text_arg(args, "dataset")?;
        match operation {
            "normalize" => self
                .datasets
                .answer(arff, &["Preprocess", "normalize"], |ds| {
                    Ok(emit(&Normalize::fit(&ds).apply(&ds).map_err(data_fault)?))
                }),
            "standardize" => {
                let ds = self.datasets.decode(arff)?;
                Ok(emit(&Standardize::fit(&ds).apply(&ds).map_err(data_fault)?))
            }
            "replaceMissing" => {
                let ds = self.datasets.decode(arff)?;
                Ok(emit(
                    &ReplaceMissing::fit(&ds).apply(&ds).map_err(data_fault)?,
                ))
            }
            "discretize" => {
                let class = opt_text_arg(args, "class")?.unwrap_or("");
                let bins = args
                    .iter()
                    .find(|(n, _)| n == "bins")
                    .and_then(|(_, v)| v.as_int().ok())
                    .unwrap_or(10)
                    .clamp(2, 1000) as usize;
                let fields = ["Preprocess", "discretize", &bins.to_string(), class];
                self.datasets.answer(arff, &fields, |ds| {
                    let ds = set_class(ds, class)?;
                    let filter = Discretize::fit(&ds, bins).map_err(data_fault)?;
                    Ok(emit(&filter.apply(&ds).map_err(data_fault)?))
                })
            }
            "discretizeSupervised" => {
                let class = text_arg(args, "class")?;
                let ds = set_class(self.datasets.decode(arff)?, class)?;
                let filter = SupervisedDiscretize::fit(&ds).map_err(data_fault)?;
                Ok(emit(&filter.apply(&ds).map_err(data_fault)?))
            }
            "removeAttributes" => {
                let ds = self.datasets.decode(arff)?;
                let names = text_arg(args, "attributes")?;
                let drop: Vec<usize> = names
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|name| {
                        ds.attribute_index(name.trim()).map_err(|_| {
                            ServiceFault::client(format!("no attribute named {name:?}"))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                Ok(emit(
                    &dm_data::filters::remove(&ds, &drop).map_err(data_fault)?,
                ))
            }
            "resample" => {
                let ds = self.datasets.decode(arff)?;
                let fraction = args
                    .iter()
                    .find(|(n, _)| n == "fraction")
                    .and_then(|(_, v)| v.as_double().ok())
                    .unwrap_or(1.0);
                let seed = args
                    .iter()
                    .find(|(n, _)| n == "seed")
                    .and_then(|(_, v)| v.as_int().ok())
                    .unwrap_or(1) as u64;
                Ok(emit(
                    &dm_data::filters::resample(&ds, fraction, seed).map_err(data_fault)?,
                ))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_arff() -> String {
        let mut ds = Dataset::new(
            "numbers",
            vec![
                dm_data::Attribute::numeric("x"),
                dm_data::Attribute::nominal("c", ["a", "b"]),
            ],
        );
        ds.push_labels(&["10", "a"]).unwrap();
        ds.push_labels(&["20", "b"]).unwrap();
        ds.push_labels(&["?", "a"]).unwrap();
        ds.push_labels(&["40", "b"]).unwrap();
        dm_data::arff::write_arff(&ds)
    }

    fn one(op: &str, extra: Vec<(String, SoapValue)>) -> Dataset {
        let s = PreprocessService::new();
        let mut args = vec![("dataset".to_string(), SoapValue::Text(numeric_arff()))];
        args.extend(extra);
        let out = s.invoke(op, &args).unwrap();
        dm_data::arff::parse_arff(out.as_text().unwrap()).unwrap()
    }

    #[test]
    fn normalize_scales() {
        let ds = one("normalize", vec![]);
        assert_eq!(ds.value(0, 0), 0.0);
        assert_eq!(ds.value(3, 0), 1.0);
        assert!(ds.instance(2).is_missing(0));
    }

    #[test]
    fn standardize_centres() {
        let ds = one("standardize", vec![]);
        let values: Vec<f64> = (0..4)
            .map(|r| ds.value(r, 0))
            .filter(|v| !v.is_nan())
            .collect();
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn replace_missing_fills() {
        let ds = one("replaceMissing", vec![]);
        assert!(!ds.has_missing(0));
    }

    #[test]
    fn discretize_bins() {
        let ds = one(
            "discretize",
            vec![
                ("bins".to_string(), SoapValue::Int(2)),
                ("class".to_string(), SoapValue::Text("c".into())),
            ],
        );
        assert!(ds.attribute(0).unwrap().is_nominal());
        assert_eq!(ds.attribute(0).unwrap().num_labels(), 2);
    }

    #[test]
    fn remove_attributes_by_name() {
        let ds = one(
            "removeAttributes",
            vec![("attributes".to_string(), SoapValue::Text("x".into()))],
        );
        assert_eq!(ds.num_attributes(), 1);
        assert_eq!(ds.attribute(0).unwrap().name(), "c");
    }

    #[test]
    fn resample_subsamples() {
        let ds = one(
            "resample",
            vec![
                ("fraction".to_string(), SoapValue::Double(0.5)),
                ("seed".to_string(), SoapValue::Int(3)),
            ],
        );
        assert_eq!(ds.num_instances(), 2);
    }

    #[test]
    fn pipeline_discretize_then_prism() {
        // Preprocessing makes numeric data usable by nominal-only
        // algorithms — the §3 "handling different types of data" chain.
        let s = PreprocessService::new();
        let numeric = dm_data::corpus::gaussian_blobs(
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
            4,
        );
        let out = s
            .invoke(
                "discretize",
                &[
                    (
                        "dataset".to_string(),
                        SoapValue::Text(dm_data::arff::write_arff(&numeric)),
                    ),
                    ("bins".to_string(), SoapValue::Int(4)),
                    ("class".to_string(), SoapValue::Text("cluster".into())),
                ],
            )
            .unwrap();
        let classifier = crate::classifier_ws::ClassifierService::new();
        let model = classifier
            .invoke(
                "classifyInstance",
                &[
                    ("dataset".to_string(), out),
                    ("classifier".to_string(), SoapValue::Text("Prism".into())),
                    ("options".to_string(), SoapValue::Text(String::new())),
                    ("attribute".to_string(), SoapValue::Text("cluster".into())),
                ],
            )
            .unwrap();
        assert!(model.as_text().unwrap().contains("Prism rules"));
    }

    #[test]
    fn supervised_discretize_over_the_wire() {
        let s = PreprocessService::new();
        let blobs = dm_data::corpus::gaussian_blobs(
            &[
                dm_data::corpus::BlobSpec {
                    center: vec![0.0],
                    stddev: 0.5,
                    count: 40,
                },
                dm_data::corpus::BlobSpec {
                    center: vec![10.0],
                    stddev: 0.5,
                    count: 40,
                },
            ],
            6,
        );
        let out = s
            .invoke(
                "discretizeSupervised",
                &[
                    (
                        "dataset".to_string(),
                        SoapValue::Text(dm_data::arff::write_arff(&blobs)),
                    ),
                    ("class".to_string(), SoapValue::Text("cluster".into())),
                ],
            )
            .unwrap();
        let ds = dm_data::arff::parse_arff(out.as_text().unwrap()).unwrap();
        // One informative cut → two bins, perfectly aligned with class.
        assert!(ds.attribute(0).unwrap().is_nominal());
        assert_eq!(ds.attribute(0).unwrap().num_labels(), 2);
    }

    #[test]
    fn discretizers_keep_string_attributes() {
        let text = "@relation notes\n@attribute note string\n@attribute x numeric\n\
            @attribute c {a,b}\n@data\nlow,1,a\nhigh,2,a\n'o\\'neil',3,b\n?,4,b\nlow,5,b\n";
        let s = PreprocessService::new();
        for (op, class) in [
            ("discretize", "c"),
            ("discretizeSupervised", "c"),
            ("discretize", ""),
        ] {
            let args = vec![
                ("dataset".to_string(), SoapValue::Text(text.to_string())),
                ("class".to_string(), SoapValue::Text(class.to_string())),
            ];
            let out = s
                .invoke(op, &args)
                .unwrap_or_else(|e| panic!("{op}: {e:?}"));
            let ds = dm_data::arff::parse_arff(out.as_text().unwrap()).unwrap();
            assert!(ds.attribute(0).unwrap().is_string(), "{op}");
            let notes: Vec<String> = (0..ds.num_instances())
                .map(|r| ds.format_value(r, 0))
                .collect();
            assert_eq!(notes, ["low", "high", "o'neil", "?", "low"], "{op}");
            assert!(ds.attribute(1).unwrap().is_nominal(), "{op}");
        }
    }

    #[test]
    fn bad_attribute_name_faults() {
        let s = PreprocessService::new();
        let err = s
            .invoke(
                "removeAttributes",
                &[
                    ("dataset".to_string(), SoapValue::Text(numeric_arff())),
                    ("attributes".to_string(), SoapValue::Text("nope".into())),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }
}
