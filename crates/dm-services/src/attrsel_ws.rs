//! The attribute-selection Web Service, including the genetic search
//! service of §5.3: "The attribute selection process can also be
//! automated through the use of a genetic search service."

use crate::dataset_cache::{with_class, DatasetCache};
use crate::support::{algo_fault, text_arg};
use dm_algorithms::attrsel::{approaches, run_approach};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};

/// The attribute-selection Web Service.
#[derive(Debug, Default)]
pub struct AttributeSelectionService {
    datasets: DatasetCache,
}

impl AttributeSelectionService {
    /// Create the service.
    pub fn new() -> AttributeSelectionService {
        AttributeSelectionService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> AttributeSelectionService {
        AttributeSelectionService { datasets }
    }
}

impl WebService for AttributeSelectionService {
    fn name(&self) -> &str {
        "AttributeSelection"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("AttributeSelection", "")
            .operation(
                Operation::new("getApproaches", vec![], Part::new("approaches", "list"))
                    .doc("the 20 supported evaluator+search pairings"),
            )
            .operation(
                Operation::new(
                    "select",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("approach", "string"),
                        Part::new("attribute", "string"),
                    ],
                    Part::new("selected", "list"),
                )
                .doc("run an approach; returns the selected attribute names"),
            )
            .operation(
                Operation::new(
                    "geneticSearch",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("attribute", "string"),
                    ],
                    Part::new("selected", "list"),
                )
                .doc("the genetic search service used by the case study (§5.3)"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        let select = |approach: &str| -> Result<SoapValue, ServiceFault> {
            let arff = text_arg(args, "dataset")?;
            let attribute = text_arg(args, "attribute")?;
            let fields = ["AttributeSelection", operation, approach, attribute];
            self.datasets.answer(arff, &fields, |ds| {
                let ds = with_class(ds, attribute)?;
                let picked = run_approach(approach, &ds, 7).map_err(algo_fault)?;
                Ok(SoapValue::List(
                    picked
                        .iter()
                        .map(|&a| {
                            SoapValue::Text(
                                ds.attribute(a)
                                    .map(|at| at.name().to_string())
                                    .unwrap_or_else(|_| format!("#{a}")),
                            )
                        })
                        .collect(),
                ))
            })
        };
        match operation {
            "getApproaches" => Ok(SoapValue::List(
                approaches()
                    .into_iter()
                    .map(|a| SoapValue::Text(a.name))
                    .collect(),
            )),
            "select" => {
                let approach = text_arg(args, "approach")?.to_string();
                select(&approach)
            }
            "geneticSearch" => select("CfsSubset+GeneticSearch"),
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::corpus::breast_cancer_arff;

    fn base_args() -> Vec<(String, SoapValue)> {
        vec![
            ("dataset".to_string(), SoapValue::Text(breast_cancer_arff())),
            ("attribute".to_string(), SoapValue::Text("Class".into())),
        ]
    }

    #[test]
    fn twenty_approaches_listed() {
        let s = AttributeSelectionService::new();
        let v = s.invoke("getApproaches", &[]).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 20);
    }

    #[test]
    fn info_gain_ranker_orders_attributes() {
        let s = AttributeSelectionService::new();
        let mut args = base_args();
        args.push((
            "approach".to_string(),
            SoapValue::Text("InfoGain+Ranker".into()),
        ));
        let v = s.invoke("select", &args).unwrap();
        let names: Vec<&str> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|x| x.as_text().unwrap())
            .collect();
        assert_eq!(names.len(), 9);
        // The strong attributes must rank above `breast`.
        let pos = |n: &str| names.iter().position(|&x| x == n).unwrap();
        assert!(pos("deg-malig") < pos("breast"));
    }

    #[test]
    fn genetic_search_selects_subset() {
        let s = AttributeSelectionService::new();
        let v = s.invoke("geneticSearch", &base_args()).unwrap();
        let names = v.as_list().unwrap();
        assert!(!names.is_empty());
        assert!(names.len() < 10);
    }

    #[test]
    fn unknown_approach_faults() {
        let s = AttributeSelectionService::new();
        let mut args = base_args();
        args.push(("approach".to_string(), SoapValue::Text("Bogus+Nope".into())));
        assert_eq!(s.invoke("select", &args).unwrap_err().code, "Client");
    }
}
