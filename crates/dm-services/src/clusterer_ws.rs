//! Clustering Web Services (§4.1): the dedicated **Cobweb** service
//! with `cluster` and `getCobwebGraph`, and a general Clusterer service
//! mirroring the general Classifier design (`getClusterers`,
//! `getOptions`, `cluster`).

use crate::dataset_cache::DatasetCache;
use crate::support::{algo_fault, opt_text_arg, text_arg, traced_handler, tree_to_svg};
use dm_algorithms::options::parse_options_string;
use dm_algorithms::registry::{clusterer_names, make_clusterer};
use dm_data::Dataset;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use std::sync::Arc;

fn build_clusterer(
    name: &str,
    options: &str,
    ds: &Dataset,
) -> Result<Box<dyn dm_algorithms::cluster::Clusterer>, ServiceFault> {
    let mut clusterer = make_clusterer(name).map_err(algo_fault)?;
    for (flag, value) in parse_options_string(options) {
        clusterer.set_option(&flag, &value).map_err(algo_fault)?;
    }
    clusterer.build(ds).map_err(algo_fault)?;
    Ok(clusterer)
}

fn run_clusterer(
    datasets: &DatasetCache,
    name: &str,
    options: &str,
    arff: &str,
) -> Result<(Box<dyn dm_algorithms::cluster::Clusterer>, Arc<Dataset>), ServiceFault> {
    let ds = datasets.decode(arff)?;
    Ok((build_clusterer(name, options, &ds)?, ds))
}

/// The `cluster` report of the named clusterer on `arff`, kept by the
/// host's answer store under `service`.
fn cluster(
    datasets: &DatasetCache,
    service: &str,
    name: &str,
    options: &str,
    arff: &str,
) -> Result<SoapValue, ServiceFault> {
    datasets.answer(arff, &[service, "cluster", name, options], |ds| {
        let clusterer = build_clusterer(name, options, &ds)?;
        Ok(SoapValue::Text(cluster_report(clusterer.as_ref(), &ds)?))
    })
}

fn cluster_report(
    clusterer: &dyn dm_algorithms::cluster::Clusterer,
    ds: &dm_data::Dataset,
) -> Result<String, ServiceFault> {
    let k = clusterer.num_clusters().map_err(algo_fault)?;
    let mut counts = vec![0usize; k.max(1)];
    for c in clusterer.assignments(ds).map_err(algo_fault)? {
        if c >= counts.len() {
            counts.resize(c + 1, 0);
        }
        counts[c] += 1;
    }
    let mut out = clusterer.describe();
    out.push_str("\nClustered Instances\n");
    for (c, n) in counts.iter().enumerate() {
        if *n > 0 {
            out.push_str(&format!(
                "{c}\t{n} ({:.0}%)\n",
                100.0 * *n as f64 / ds.num_instances().max(1) as f64
            ));
        }
    }
    Ok(out)
}

/// The dedicated Cobweb Web Service.
#[derive(Debug, Default)]
pub struct CobwebService {
    datasets: DatasetCache,
}

impl CobwebService {
    /// Create the service.
    pub fn new() -> CobwebService {
        CobwebService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> CobwebService {
        CobwebService { datasets }
    }
}

impl WebService for CobwebService {
    fn name(&self) -> &str {
        "Cobweb"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Cobweb", "")
            .operation(
                Operation::new(
                    "cluster",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("result", "string"),
                )
                .doc("apply the Cobweb algorithm; returns a textual clustering description"),
            )
            .operation(
                Operation::new(
                    "getCobwebGraph",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("graph", "string"),
                )
                .doc("apply Cobweb and return the concept hierarchy as an SVG tree"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        traced_handler(self.name(), operation, || {
            let options = opt_text_arg(args, "options")?.unwrap_or("");
            match operation {
                "cluster" => {
                    let arff = text_arg(args, "dataset")?;
                    cluster(&self.datasets, "Cobweb", "Cobweb", options, arff)
                }
                "getCobwebGraph" => {
                    let arff = text_arg(args, "dataset")?;
                    let (clusterer, _) = run_clusterer(&self.datasets, "Cobweb", options, arff)?;
                    let tree = clusterer
                        .tree_model()
                        .ok_or_else(|| ServiceFault::server("Cobweb produced no hierarchy"))?;
                    Ok(SoapValue::Text(tree_to_svg(&tree)))
                }
                other => Err(ServiceFault::client(format!("no operation {other:?}"))),
            }
        })
    }
}

/// The general Clusterer Web Service.
#[derive(Debug, Default)]
pub struct ClustererService {
    datasets: DatasetCache,
}

impl ClustererService {
    /// Create the service.
    pub fn new() -> ClustererService {
        ClustererService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> ClustererService {
        ClustererService { datasets }
    }
}

impl WebService for ClustererService {
    fn name(&self) -> &str {
        "Clusterer"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Clusterer", "")
            .operation(
                Operation::new("getClusterers", vec![], Part::new("clusterers", "list"))
                    .doc("return the list of available clustering algorithms"),
            )
            .operation(
                Operation::new(
                    "getOptions",
                    vec![Part::new("clusterer", "string")],
                    Part::new("options", "list"),
                )
                .doc("return the options of a clustering algorithm"),
            )
            .operation(
                Operation::new(
                    "cluster",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("clusterer", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("result", "string"),
                )
                .doc("build the named clusterer on an ARFF dataset"),
            )
            .operation(
                Operation::new(
                    "assignments",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("clusterer", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("assignments", "list"),
                )
                .doc("per-instance cluster indices"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        traced_handler(self.name(), operation, || match operation {
            "getClusterers" => Ok(SoapValue::List(
                clusterer_names()
                    .into_iter()
                    .map(|n| SoapValue::Text(n.to_string()))
                    .collect(),
            )),
            "getOptions" => {
                let name = text_arg(args, "clusterer")?;
                let c = make_clusterer(name).map_err(algo_fault)?;
                Ok(SoapValue::List(
                    c.option_descriptors()
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
            "cluster" => {
                let arff = text_arg(args, "dataset")?;
                let name = text_arg(args, "clusterer")?;
                let options = opt_text_arg(args, "options")?.unwrap_or("");
                cluster(&self.datasets, "Clusterer", name, options, arff)
            }
            "assignments" => {
                let arff = text_arg(args, "dataset")?;
                let name = text_arg(args, "clusterer")?;
                let options = opt_text_arg(args, "options")?.unwrap_or("");
                let (clusterer, ds) = run_clusterer(&self.datasets, name, options, arff)?;
                let assignments = clusterer.assignments(&ds).map_err(algo_fault)?;
                Ok(SoapValue::List(
                    assignments
                        .into_iter()
                        .map(|c| SoapValue::Int(c as i64))
                        .collect(),
                ))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::corpus::{gaussian_blobs, BlobSpec};

    fn blobs_arff() -> String {
        let ds = gaussian_blobs(
            &[
                BlobSpec {
                    center: vec![0.0, 0.0],
                    stddev: 0.3,
                    count: 30,
                },
                BlobSpec {
                    center: vec![8.0, 8.0],
                    stddev: 0.3,
                    count: 30,
                },
            ],
            5,
        );
        dm_data::arff::write_arff(&ds)
    }

    #[test]
    fn cobweb_cluster_text() {
        let s = CobwebService::new();
        let v = s
            .invoke(
                "cluster",
                &[
                    ("dataset".to_string(), SoapValue::Text(blobs_arff())),
                    ("options".to_string(), SoapValue::Text("-A 0.3".into())),
                ],
            )
            .unwrap();
        let text = v.as_text().unwrap();
        assert!(text.contains("Cobweb"));
        assert!(text.contains("Clustered Instances"));
    }

    #[test]
    fn cobweb_graph_svg() {
        let s = CobwebService::new();
        let v = s
            .invoke(
                "getCobwebGraph",
                &[
                    ("dataset".to_string(), SoapValue::Text(blobs_arff())),
                    ("options".to_string(), SoapValue::Text("-A 0.3".into())),
                ],
            )
            .unwrap();
        assert!(v.as_text().unwrap().starts_with("<svg"));
    }

    #[test]
    fn general_service_lists_clusterers() {
        let s = ClustererService::new();
        let v = s.invoke("getClusterers", &[]).unwrap();
        let list = v.as_list().unwrap();
        assert!(list.iter().any(|x| x.as_text().unwrap() == "SimpleKMeans"));
        assert!(list.iter().any(|x| x.as_text().unwrap() == "Cobweb"));
    }

    #[test]
    fn general_service_runs_kmeans() {
        let s = ClustererService::new();
        let v = s
            .invoke(
                "assignments",
                &[
                    ("dataset".to_string(), SoapValue::Text(blobs_arff())),
                    (
                        "clusterer".to_string(),
                        SoapValue::Text("SimpleKMeans".into()),
                    ),
                    ("options".to_string(), SoapValue::Text("-N 2".into())),
                ],
            )
            .unwrap();
        let assignments = v.as_list().unwrap();
        assert_eq!(assignments.len(), 60);
        // The two blobs should be separated.
        let first = assignments[0].as_int().unwrap();
        let last = assignments[59].as_int().unwrap();
        assert_ne!(first, last);
    }

    #[test]
    fn get_options_for_kmeans() {
        let s = ClustererService::new();
        let v = s
            .invoke(
                "getOptions",
                &[(
                    "clusterer".to_string(),
                    SoapValue::Text("SimpleKMeans".into()),
                )],
            )
            .unwrap();
        assert!(!v.as_list().unwrap().is_empty());
    }

    #[test]
    fn unknown_clusterer_faults() {
        let s = ClustererService::new();
        let err = s
            .invoke(
                "cluster",
                &[
                    ("dataset".to_string(), SoapValue::Text(blobs_arff())),
                    ("clusterer".to_string(), SoapValue::Text("DBSCAN".into())),
                    ("options".to_string(), SoapValue::Text(String::new())),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }
}
