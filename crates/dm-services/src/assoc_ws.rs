//! The association-rules Web Service — the third algorithm family of
//! §1 ("1 classifiers, 2 clustering algorithms and 3 association
//! rules").

use crate::dataset_cache::DatasetCache;
use crate::support::{algo_fault, opt_text_arg, text_arg};
use dm_algorithms::options::parse_options_string;
use dm_algorithms::registry::{associator_names, make_associator};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};

/// The association-rules Web Service.
#[derive(Debug, Default)]
pub struct AssociationService {
    datasets: DatasetCache,
}

impl AssociationService {
    /// Create the service.
    pub fn new() -> AssociationService {
        AssociationService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> AssociationService {
        AssociationService { datasets }
    }
}

impl WebService for AssociationService {
    fn name(&self) -> &str {
        "Association"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("Association", "")
            .operation(
                Operation::new("getAssociators", vec![], Part::new("associators", "list"))
                    .doc("return the list of available association-rule miners"),
            )
            .operation(
                Operation::new(
                    "mine",
                    vec![
                        Part::new("dataset", "string"),
                        Part::new("associator", "string"),
                        Part::new("options", "string"),
                    ],
                    Part::new("rules", "list"),
                )
                .doc("mine association rules from an ARFF dataset"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        match operation {
            "getAssociators" => Ok(SoapValue::List(
                associator_names()
                    .into_iter()
                    .map(|n| SoapValue::Text(n.to_string()))
                    .collect(),
            )),
            "mine" => {
                let arff = text_arg(args, "dataset")?;
                let name = text_arg(args, "associator")?;
                let options = opt_text_arg(args, "options")?.unwrap_or("");
                let ds = self.datasets.decode(arff)?;
                let mut miner = make_associator(name).map_err(algo_fault)?;
                for (flag, value) in parse_options_string(options) {
                    miner.set_option(&flag, &value).map_err(algo_fault)?;
                }
                let rules = miner.mine(&ds).map_err(algo_fault)?;
                Ok(SoapValue::List(
                    rules
                        .iter()
                        .map(|r| SoapValue::Text(r.render(&ds)))
                        .collect(),
                ))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::corpus::market_baskets;

    fn baskets_arff() -> String {
        let ds = market_baskets(6, 200, &[(&[0, 1], 0.5)], 0.02, 9);
        dm_data::arff::write_arff(&ds)
    }

    #[test]
    fn lists_miners() {
        let s = AssociationService::new();
        let v = s.invoke("getAssociators", &[]).unwrap();
        let names: Vec<&str> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|x| x.as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["Apriori", "FPGrowth"]);
    }

    #[test]
    fn mines_rules_with_both_miners() {
        let s = AssociationService::new();
        for miner in ["Apriori", "FPGrowth"] {
            let v = s
                .invoke(
                    "mine",
                    &[
                        ("dataset".to_string(), SoapValue::Text(baskets_arff())),
                        ("associator".to_string(), SoapValue::Text(miner.into())),
                        (
                            "options".to_string(),
                            SoapValue::Text("-Z true -M 0.3 -C 0.7 -N 20".into()),
                        ),
                    ],
                )
                .unwrap();
            let rules = v.as_list().unwrap();
            assert!(!rules.is_empty(), "{miner} found no rules");
            assert!(
                rules.iter().any(|r| {
                    let t = r.as_text().unwrap();
                    t.contains("item0") && t.contains("item1")
                }),
                "{miner} missed the planted pair"
            );
        }
    }

    #[test]
    fn unknown_miner_faults() {
        let s = AssociationService::new();
        let err = s
            .invoke(
                "mine",
                &[
                    ("dataset".to_string(), SoapValue::Text(baskets_arff())),
                    ("associator".to_string(), SoapValue::Text("Eclat".into())),
                    ("options".to_string(), SoapValue::Text(String::new())),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }

    #[test]
    fn numeric_dataset_faults_cleanly() {
        let s = AssociationService::new();
        let arff = "@relation n\n@attribute x numeric\n@data\n1\n";
        let err = s
            .invoke(
                "mine",
                &[
                    ("dataset".to_string(), SoapValue::Text(arff.into())),
                    ("associator".to_string(), SoapValue::Text("Apriori".into())),
                    ("options".to_string(), SoapValue::Text(String::new())),
                ],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }
}
