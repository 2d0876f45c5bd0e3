//! Relational data access — the paper's stated future work: "Work is
//! underway to include access to relational databases through the
//! OGSA-DAI services available in GridMiner" (§5.4).
//!
//! [`DataAccessService`] is the OGSA-DAI-style data service: named
//! relational *resources* (tables) are registered with the service;
//! clients discover them (`listResources`), inspect their schemas
//! (`getSchema`), and run projection/selection queries whose results
//! are delivered as ARFF — ready to feed `classifyInstance` directly.
//!
//! The query language is the conjunctive fragment OGSA-DAI activities
//! most commonly encoded: `attr=value` terms joined by `;`, with an
//! optional projection list and row limit. Numeric comparisons support
//! `=`, `<`, `>`.

use crate::support::{data_fault, opt_text_arg, text_arg};
use dm_data::{Dataset, Value};
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// The standard `transactions` table, generated once per process:
/// every host's service shares it.
static TRANSACTIONS: LazyLock<Arc<Dataset>> = LazyLock::new(|| {
    let table = dm_data::corpus::market_baskets(8, 300, &[(&[0, 1], 0.4)], 0.05, 21);
    Arc::new(table)
});

/// One parsed condition term.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    NominalEq { attr: usize, value: usize },
    NumericCmp { attr: usize, op: char, value: f64 },
}

fn parse_where(ds: &Dataset, clause: &str) -> Result<Vec<Term>, ServiceFault> {
    let mut terms = Vec::new();
    for raw in clause.split(';') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (op, pos) = ['=', '<', '>']
            .iter()
            .filter_map(|&op| raw.find(op).map(|p| (op, p)))
            .min_by_key(|&(_, p)| p)
            .ok_or_else(|| ServiceFault::client(format!("condition {raw:?} has no =, < or >")))?;
        let (name, value) = (raw[..pos].trim(), raw[pos + 1..].trim());
        let attr = ds
            .attribute_index(name)
            .map_err(|_| ServiceFault::client(format!("no column named {name:?}")))?;
        let spec = ds.attribute(attr).map_err(data_fault)?;
        if spec.is_nominal() {
            if op != '=' {
                return Err(ServiceFault::client(format!(
                    "column {name:?} is nominal; only = is supported"
                )));
            }
            let value = spec.label_index(value).ok_or_else(|| {
                ServiceFault::client(format!("{value:?} not in domain of {name:?}"))
            })?;
            terms.push(Term::NominalEq { attr, value });
        } else {
            let value: f64 = value.parse().map_err(|_| {
                ServiceFault::client(format!("{value:?} is not numeric for column {name:?}"))
            })?;
            terms.push(Term::NumericCmp { attr, op, value });
        }
    }
    Ok(terms)
}

fn matches(ds: &Dataset, row: usize, terms: &[Term]) -> bool {
    terms.iter().all(|t| match *t {
        Term::NominalEq { attr, value } => {
            let v = ds.value(row, attr);
            !Value::is_missing(v) && Value::as_index(v) == value
        }
        Term::NumericCmp { attr, op, value } => {
            let v = ds.value(row, attr);
            if Value::is_missing(v) {
                return false;
            }
            match op {
                '=' => (v - value).abs() < 1e-12,
                '<' => v < value,
                _ => v > value,
            }
        }
    })
}

/// The OGSA-DAI-style relational data service. Each resource is held
/// once and read in place by every call.
#[derive(Debug, Default)]
pub struct DataAccessService {
    resources: RwLock<BTreeMap<String, Arc<Dataset>>>,
}

impl DataAccessService {
    /// Create with no resources.
    pub fn new() -> DataAccessService {
        DataAccessService::default()
    }

    /// Create with the standard corpus registered: the case-study
    /// `breast_cancer` table plus a synthetic `transactions` table.
    pub fn with_standard_resources() -> DataAccessService {
        let s = DataAccessService::new();
        s.register("breast_cancer", dm_data::corpus::breast_cancer());
        s.register("transactions", Arc::clone(&TRANSACTIONS));
        s
    }

    /// Register (or replace) a resource: an owned table or a shared one.
    pub fn register<N: Into<String>>(&self, name: N, table: impl Into<Arc<Dataset>>) {
        self.resources.write().insert(name.into(), table.into());
    }

    fn resource(&self, name: &str) -> Result<Arc<Dataset>, ServiceFault> {
        self.resources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceFault::client(format!("no resource named {name:?}")))
    }
}

impl WebService for DataAccessService {
    fn name(&self) -> &str {
        "DataAccess"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("DataAccess", "")
            .operation(
                Operation::new("listResources", vec![], Part::new("resources", "list"))
                    .doc("names of the registered relational resources"),
            )
            .operation(
                Operation::new(
                    "getSchema",
                    vec![Part::new("resource", "string")],
                    Part::new("schema", "list"),
                )
                .doc("column names and types of a resource"),
            )
            .operation(
                Operation::new(
                    "query",
                    vec![
                        Part::new("resource", "string"),
                        Part::new("select", "string"),
                        Part::new("where", "string"),
                        Part::new("limit", "long"),
                    ],
                    Part::new("arff", "string"),
                )
                .doc("projection/selection query; result delivered as ARFF"),
            )
            .operation(
                Operation::new(
                    "rowCount",
                    vec![
                        Part::new("resource", "string"),
                        Part::new("where", "string"),
                    ],
                    Part::new("count", "long"),
                )
                .doc("number of rows matching a condition"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        match operation {
            "listResources" => Ok(SoapValue::List(
                self.resources
                    .read()
                    .keys()
                    .map(|k| SoapValue::Text(k.clone()))
                    .collect(),
            )),
            "getSchema" => {
                let ds = self.resource(text_arg(args, "resource")?)?;
                Ok(SoapValue::List(
                    ds.attributes()
                        .iter()
                        .map(|a| {
                            SoapValue::List(vec![
                                SoapValue::Text(a.name().to_string()),
                                SoapValue::Text(a.arff_type()),
                            ])
                        })
                        .collect(),
                ))
            }
            "query" => {
                let ds = self.resource(text_arg(args, "resource")?)?;
                let select = opt_text_arg(args, "select")?
                    .unwrap_or("")
                    .trim()
                    .to_string();
                let clause = opt_text_arg(args, "where")?.unwrap_or("");
                let limit = args
                    .iter()
                    .find(|(n, _)| n == "limit")
                    .and_then(|(_, v)| v.as_int().ok())
                    .unwrap_or(i64::MAX)
                    .max(0) as usize;
                let terms = parse_where(&ds, clause)?;
                let rows: Vec<usize> = (0..ds.num_instances())
                    .filter(|&r| matches(&ds, r, &terms))
                    .take(limit)
                    .collect();
                let mut result = ds.select_rows(&rows);
                if !select.is_empty() {
                    let keep: Vec<usize> = select
                        .split(',')
                        .map(|name| {
                            ds.attribute_index(name.trim()).map_err(|_| {
                                ServiceFault::client(format!("no column named {name:?}"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    result = dm_data::filters::project(&result, &keep).map_err(data_fault)?;
                }
                Ok(SoapValue::Text(dm_data::arff::write_arff(&result)))
            }
            "rowCount" => {
                let ds = self.resource(text_arg(args, "resource")?)?;
                let clause = opt_text_arg(args, "where")?.unwrap_or("");
                let terms = parse_where(&ds, clause)?;
                let count = (0..ds.num_instances())
                    .filter(|&r| matches(&ds, r, &terms))
                    .count();
                Ok(SoapValue::Int(count as i64))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> DataAccessService {
        DataAccessService::with_standard_resources()
    }

    #[test]
    fn lookups_share_the_registered_table() {
        let s = service();
        let first = s.resource("breast_cancer").unwrap();
        let second = s.resource("breast_cancer").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.num_instances(), 286);
        // Every host's service shares the one standard `transactions`.
        let host_a = s.resource("transactions").unwrap();
        let host_b = service().resource("transactions").unwrap();
        assert!(Arc::ptr_eq(&host_a, &host_b));
    }

    #[test]
    fn list_and_schema() {
        let s = service();
        let resources = s.invoke("listResources", &[]).unwrap();
        let names: Vec<&str> = resources
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["breast_cancer", "transactions"]);

        let schema = s
            .invoke(
                "getSchema",
                &[(
                    "resource".to_string(),
                    SoapValue::Text("breast_cancer".into()),
                )],
            )
            .unwrap();
        let cols = schema.as_list().unwrap();
        assert_eq!(cols.len(), 10);
        let first = cols[0].as_list().unwrap();
        assert_eq!(first[0].as_text().unwrap(), "age");
    }

    #[test]
    fn query_selection_and_projection() {
        let s = service();
        let arff = s
            .invoke(
                "query",
                &[
                    (
                        "resource".to_string(),
                        SoapValue::Text("breast_cancer".into()),
                    ),
                    (
                        "select".to_string(),
                        SoapValue::Text("node-caps, Class".into()),
                    ),
                    ("where".to_string(), SoapValue::Text("node-caps=yes".into())),
                    ("limit".to_string(), SoapValue::Int(1000)),
                ],
            )
            .unwrap();
        let ds = dm_data::arff::parse_arff(arff.as_text().unwrap()).unwrap();
        assert_eq!(ds.num_attributes(), 2);
        assert_eq!(ds.num_instances(), 56); // 25 + 31 from the pinned table
        for r in 0..ds.num_instances() {
            assert_eq!(ds.instance(r).label(0), Some("yes"));
        }
    }

    #[test]
    fn row_count_with_conjunction() {
        let s = service();
        let count = s
            .invoke(
                "rowCount",
                &[
                    (
                        "resource".to_string(),
                        SoapValue::Text("breast_cancer".into()),
                    ),
                    (
                        "where".to_string(),
                        SoapValue::Text("node-caps=yes; Class=recurrence-events".into()),
                    ),
                ],
            )
            .unwrap();
        assert_eq!(count.as_int().unwrap(), 31); // pinned contingency cell
    }

    #[test]
    fn limit_truncates() {
        let s = service();
        let arff = s
            .invoke(
                "query",
                &[
                    (
                        "resource".to_string(),
                        SoapValue::Text("breast_cancer".into()),
                    ),
                    ("select".to_string(), SoapValue::Text(String::new())),
                    ("where".to_string(), SoapValue::Text(String::new())),
                    ("limit".to_string(), SoapValue::Int(7)),
                ],
            )
            .unwrap();
        let ds = dm_data::arff::parse_arff(arff.as_text().unwrap()).unwrap();
        assert_eq!(ds.num_instances(), 7);
        assert_eq!(ds.num_attributes(), 10);
    }

    #[test]
    fn numeric_comparisons() {
        let s = DataAccessService::new();
        let mut table = Dataset::new(
            "readings",
            vec![
                dm_data::Attribute::numeric("value"),
                dm_data::Attribute::nominal("ok", ["n", "y"]),
            ],
        );
        for i in 0..20 {
            table
                .push_row(vec![i as f64, f64::from(u8::from(i >= 10))])
                .unwrap();
        }
        s.register("readings", table);
        let count = s
            .invoke(
                "rowCount",
                &[
                    ("resource".to_string(), SoapValue::Text("readings".into())),
                    (
                        "where".to_string(),
                        SoapValue::Text("value>4.5; value<10".into()),
                    ),
                ],
            )
            .unwrap();
        assert_eq!(count.as_int().unwrap(), 5); // 5..=9
    }

    #[test]
    fn query_result_feeds_classifier() {
        // The future-work pipeline: DataAccess.query → classifyInstance.
        let s = service();
        let arff = s
            .invoke(
                "query",
                &[
                    (
                        "resource".to_string(),
                        SoapValue::Text("breast_cancer".into()),
                    ),
                    ("select".to_string(), SoapValue::Text(String::new())),
                    ("where".to_string(), SoapValue::Text(String::new())),
                    ("limit".to_string(), SoapValue::Int(i64::MAX)),
                ],
            )
            .unwrap();
        let classifier = crate::classifier_ws::ClassifierService::new();
        let model = classifier
            .invoke(
                "classifyInstance",
                &[
                    ("dataset".to_string(), arff),
                    ("classifier".to_string(), SoapValue::Text("J48".into())),
                    ("options".to_string(), SoapValue::Text(String::new())),
                    ("attribute".to_string(), SoapValue::Text("Class".into())),
                ],
            )
            .unwrap();
        assert!(model.as_text().unwrap().contains("node-caps"));
    }

    #[test]
    fn bad_queries_fault() {
        let s = service();
        let bad = |args: Vec<(String, SoapValue)>| s.invoke("query", &args).unwrap_err().code;
        assert_eq!(
            bad(vec![(
                "resource".to_string(),
                SoapValue::Text("nope".into())
            )]),
            "Client"
        );
        assert_eq!(
            bad(vec![
                (
                    "resource".to_string(),
                    SoapValue::Text("breast_cancer".into())
                ),
                ("select".to_string(), SoapValue::Text("bogus_col".into())),
                ("where".to_string(), SoapValue::Text(String::new())),
            ]),
            "Client"
        );
        assert_eq!(
            bad(vec![
                (
                    "resource".to_string(),
                    SoapValue::Text("breast_cancer".into())
                ),
                ("select".to_string(), SoapValue::Text(String::new())),
                ("where".to_string(), SoapValue::Text("age!adult".into())),
            ]),
            "Client"
        );
        assert_eq!(
            bad(vec![
                (
                    "resource".to_string(),
                    SoapValue::Text("breast_cancer".into())
                ),
                ("select".to_string(), SoapValue::Text(String::new())),
                ("where".to_string(), SoapValue::Text("node-caps<yes".into())),
            ]),
            "Client"
        );
    }
}
