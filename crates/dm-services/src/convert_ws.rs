//! Data-handling Web Services (§4.3, §5.3): format conversion
//! (CSV↔ARFF), dataset summaries (the Figure-3 table), attribute
//! listing for the attributeSelector tool, and the URL reader — "a Web
//! Service to read the data file from a URL and convert this into a
//! format suitable for analysis". The URL reader resolves against a
//! registered URL→content map (the offline stand-in for the UCI
//! repository; see DESIGN.md).

use crate::dataset_cache::DatasetCache;
use crate::support::{data_fault, text_arg};
use dm_data::convert::{convert, DataFormat};
use dm_data::summary::DatasetSummary;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use parking_lot::RwLock;
use std::collections::HashMap;

/// The data conversion / inspection Web Service.
#[derive(Debug, Default)]
pub struct DataConversionService {
    datasets: DatasetCache,
}

impl DataConversionService {
    /// Create the service.
    pub fn new() -> DataConversionService {
        DataConversionService::default()
    }

    /// Create the service decoding datasets through `datasets`.
    pub(crate) fn with_datasets(datasets: DatasetCache) -> DataConversionService {
        DataConversionService { datasets }
    }
}

impl WebService for DataConversionService {
    fn name(&self) -> &str {
        "DataConversion"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("DataConversion", "")
            .operation(
                Operation::new(
                    "csvToArff",
                    vec![Part::new("csv", "string")],
                    Part::new("arff", "string"),
                )
                .doc("convert CSV (e.g. exported from MS-Excel) to ARFF"),
            )
            .operation(
                Operation::new(
                    "arffToCsv",
                    vec![Part::new("arff", "string")],
                    Part::new("csv", "string"),
                )
                .doc("convert ARFF to CSV"),
            )
            .operation(
                Operation::new(
                    "summary",
                    vec![Part::new("dataset", "string")],
                    Part::new("summary", "string"),
                )
                .doc("the per-attribute summary table (Figure 3)"),
            )
            .operation(
                Operation::new(
                    "attributes",
                    vec![Part::new("dataset", "string")],
                    Part::new("attributes", "list"),
                )
                .doc("attribute names, for the attributeSelector tool"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        match operation {
            "csvToArff" => {
                let csv = text_arg(args, "csv")?;
                let arff = convert(csv, DataFormat::Csv, DataFormat::Arff).map_err(data_fault)?;
                Ok(SoapValue::Text(arff))
            }
            "arffToCsv" => {
                let arff = text_arg(args, "arff")?;
                let ds = self.datasets.decode(arff)?;
                Ok(SoapValue::Text(dm_data::csv::write_csv(&ds)))
            }
            "summary" => {
                let ds = self.datasets.decode_sniffed(text_arg(args, "dataset")?)?;
                Ok(SoapValue::Text(DatasetSummary::of(&ds).to_table_string()))
            }
            "attributes" => {
                let ds = self.datasets.decode_sniffed(text_arg(args, "dataset")?)?;
                Ok(SoapValue::List(
                    ds.attributes()
                        .iter()
                        .map(|a| SoapValue::Text(a.name().to_string()))
                        .collect(),
                ))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

/// The URL-reader Web Service: fetches a registered URL's content and
/// (optionally) converts it to ARFF. Content is registered up front —
/// the paper's service fetched from the live UCI repository; offline,
/// the corpus generators provide the bytes (substitution documented in
/// DESIGN.md).
#[derive(Debug, Default)]
pub struct UrlReaderService {
    content: RwLock<HashMap<String, String>>,
    datasets: DatasetCache,
}

impl UrlReaderService {
    /// Create with no registered URLs.
    pub fn new() -> UrlReaderService {
        UrlReaderService::default()
    }

    /// Create with the standard corpus URLs registered (the UCI
    /// breast-cancer dataset of the case study).
    pub fn with_standard_corpus() -> UrlReaderService {
        UrlReaderService::standard_corpus_with_datasets(DatasetCache::default())
    }

    /// [`UrlReaderService::with_standard_corpus`], decoding datasets
    /// through `datasets`.
    pub(crate) fn standard_corpus_with_datasets(datasets: DatasetCache) -> UrlReaderService {
        let s = UrlReaderService {
            datasets,
            ..UrlReaderService::default()
        };
        s.register(
            "http://www.ics.uci.edu/mlearn/breast-cancer.arff",
            dm_data::corpus::breast_cancer_arff(),
        );
        s
    }

    /// Register content for a URL.
    pub fn register<U: Into<String>, C: Into<String>>(&self, url: U, content: C) {
        self.content.write().insert(url.into(), content.into());
    }
}

impl WebService for UrlReaderService {
    fn name(&self) -> &str {
        "UrlReader"
    }

    fn wsdl(&self) -> WsdlDocument {
        WsdlDocument::new("UrlReader", "")
            .operation(
                Operation::new(
                    "readUrl",
                    vec![Part::new("url", "string")],
                    Part::new("content", "string"),
                )
                .doc("fetch raw content from a URL"),
            )
            .operation(
                Operation::new(
                    "readArff",
                    vec![Part::new("url", "string")],
                    Part::new("arff", "string"),
                )
                .doc("fetch a dataset from a URL and convert it into ARFF"),
            )
    }

    fn invoke(
        &self,
        operation: &str,
        args: &[(String, SoapValue)],
    ) -> Result<SoapValue, ServiceFault> {
        let url = text_arg(args, "url")?;
        let content = self
            .content
            .read()
            .get(url)
            .cloned()
            .ok_or_else(|| ServiceFault::client(format!("404: no content at {url:?}")))?;
        match operation {
            "readUrl" => Ok(SoapValue::Text(content)),
            "readArff" => {
                let ds = self.datasets.decode_sniffed(&content)?;
                Ok(SoapValue::Text(dm_data::arff::write_arff(&ds)))
            }
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_arff_roundtrip() {
        let s = DataConversionService::new();
        let v = s
            .invoke(
                "csvToArff",
                &[("csv".to_string(), SoapValue::Text("a,b\n1,x\n2,y\n".into()))],
            )
            .unwrap();
        let arff = v.as_text().unwrap().to_string();
        assert!(arff.contains("@attribute a numeric"));
        let v2 = s
            .invoke("arffToCsv", &[("arff".to_string(), SoapValue::Text(arff))])
            .unwrap();
        assert!(v2.as_text().unwrap().starts_with("a,b"));
    }

    #[test]
    fn summary_reproduces_figure3_header() {
        let s = DataConversionService::new();
        let v = s
            .invoke(
                "summary",
                &[(
                    "dataset".to_string(),
                    SoapValue::Text(dm_data::corpus::breast_cancer_arff()),
                )],
            )
            .unwrap();
        let table = v.as_text().unwrap();
        assert!(table.contains("Num Instances 286"));
        assert!(table.contains("Missing values 9 / 0.3%"));
        assert!(table.contains("node-caps"));
    }

    #[test]
    fn attributes_listed() {
        let s = DataConversionService::new();
        let v = s
            .invoke(
                "attributes",
                &[(
                    "dataset".to_string(),
                    SoapValue::Text(dm_data::corpus::breast_cancer_arff()),
                )],
            )
            .unwrap();
        let names: Vec<&str> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|x| x.as_text().unwrap())
            .collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"node-caps"));
    }

    #[test]
    fn url_reader_serves_registered_content() {
        let s = UrlReaderService::with_standard_corpus();
        let v = s
            .invoke(
                "readArff",
                &[(
                    "url".to_string(),
                    SoapValue::Text("http://www.ics.uci.edu/mlearn/breast-cancer.arff".into()),
                )],
            )
            .unwrap();
        assert!(v.as_text().unwrap().contains("@relation breast-cancer"));
    }

    #[test]
    fn url_reader_404() {
        let s = UrlReaderService::new();
        let err = s
            .invoke(
                "readUrl",
                &[("url".to_string(), SoapValue::Text("http://nope".into()))],
            )
            .unwrap_err();
        assert!(err.message.contains("404"));
    }

    #[test]
    fn url_reader_converts_csv_content() {
        let s = UrlReaderService::new();
        s.register("http://example/x.csv", "a,b\n1,2\n");
        let v = s
            .invoke(
                "readArff",
                &[(
                    "url".to_string(),
                    SoapValue::Text("http://example/x.csv".into()),
                )],
            )
            .unwrap();
        assert!(v.as_text().unwrap().contains("@relation"));
    }

    #[test]
    fn bad_csv_faults() {
        let s = DataConversionService::new();
        let err = s
            .invoke(
                "csvToArff",
                &[("csv".to_string(), SoapValue::Text("".into()))],
            )
            .unwrap_err();
        assert_eq!(err.code, "Client");
    }
}
