//! Data-handling Web Services (§4.3, §5.3): format conversion
//! (CSV↔ARFF), dataset summaries (the Figure-3 table), attribute
//! listing for the attributeSelector tool, and the URL reader — "a Web
//! Service to read the data file from a URL and convert this into a
//! format suitable for analysis". The URL reader resolves against a
//! registered URL→content map (the offline stand-in for the UCI
//! repository; see DESIGN.md) and keeps each content's ARFF conversion
//! once made.

use crate::dataset_cache::DatasetCache;
use crate::support::{data_fault, text_arg};
use dm_data::convert::{convert, DataFormat};
use dm_data::summary::DatasetSummary;
use dm_data::Dataset;
use dm_wsrf::container::{ServiceFault, WebService};
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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
                let text = text_arg(args, "dataset")?;
                let table = |ds: Arc<Dataset>| {
                    Ok(SoapValue::Text(DatasetSummary::of(&ds).to_table_string()))
                };
                match DataFormat::sniff(text) {
                    DataFormat::Arff => {
                        self.datasets
                            .answer(text, &["DataConversion", "summary"], table)
                    }
                    DataFormat::Csv => table(self.datasets.decode_sniffed(text)?),
                }
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
///
/// Each URL keeps its content's ARFF conversion once a `readArff` has
/// produced it, so a repeated `readArff` returns the kept text. A
/// conversion error is not kept, and registering a URL again replaces
/// its content and conversion together.
#[derive(Debug, Default)]
pub struct UrlReaderService {
    content: RwLock<HashMap<String, Arc<UrlContent>>>,
    datasets: DatasetCache,
}

/// A registered URL's content and, once converted, its ARFF text.
#[derive(Debug)]
struct UrlContent {
    text: String,
    arff: OnceLock<String>,
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
        let entry = UrlContent {
            text: content.into(),
            arff: OnceLock::new(),
        };
        self.content.write().insert(url.into(), Arc::new(entry));
    }

    /// The ARFF conversion of `entry`, converted on first use: ARFF
    /// through the shared dataset cache, CSV parsed afresh.
    fn arff_of<'a>(&self, entry: &'a UrlContent) -> Result<&'a str, ServiceFault> {
        if let Some(arff) = entry.arff.get() {
            return Ok(arff);
        }
        let ds = self.datasets.decode_sniffed(&entry.text)?;
        Ok(entry.arff.get_or_init(|| dm_data::arff::write_arff(&ds)))
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
        let entry = self
            .content
            .read()
            .get(url)
            .cloned()
            .ok_or_else(|| ServiceFault::client(format!("404: no content at {url:?}")))?;
        match operation {
            "readUrl" => Ok(SoapValue::Text(entry.text.clone())),
            "readArff" => Ok(SoapValue::Text(self.arff_of(&entry)?.to_string())),
            other => Err(ServiceFault::client(format!("no operation {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::arff::{parse_arff, write_arff};

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

    fn read(s: &UrlReaderService, operation: &str, url: &str) -> Result<String, ServiceFault> {
        s.invoke(
            operation,
            &[("url".to_string(), SoapValue::Text(url.into()))],
        )
        .map(|v| v.as_text().unwrap().to_string())
    }

    #[test]
    fn url_reader_keeps_the_conversion_until_the_url_is_registered_again() {
        let s = UrlReaderService::new();
        let url = "http://example/r.arff";
        let first = "@relation one\n@attribute a numeric\n@data\n1\n";
        s.register(url, first);
        let arff = read(&s, "readArff", url).unwrap();
        assert!(arff.contains("@relation one"));
        assert_eq!(read(&s, "readArff", url).unwrap(), arff);
        let second = "@relation two\n@attribute b {x,y}\n@data\ny\n";
        s.register(url, second);
        let arff = read(&s, "readArff", url).unwrap();
        assert!(arff.contains("@relation two"), "{arff}");
        assert_eq!(arff, write_arff(&parse_arff(second).unwrap()));
        assert_eq!(read(&s, "readUrl", url).unwrap(), second);
    }

    #[test]
    fn url_reader_keeps_no_conversion_error() {
        let s = UrlReaderService::new();
        let url = "http://example/bad.arff";
        s.register(url, "@relation t\n@data\n1\n");
        let fault = read(&s, "readArff", url).unwrap_err();
        assert_eq!(fault.code, "Client");
        assert_eq!(read(&s, "readArff", url).unwrap_err(), fault);
        s.register(url, "@relation t\n@attribute a numeric\n@data\n1\n");
        assert!(read(&s, "readArff", url)
            .unwrap()
            .contains("@attribute a numeric"));
    }

    #[test]
    fn url_reader_converts_csv_like_csv_to_arff() {
        let s = UrlReaderService::new();
        let csv = "a,b\n1,x\n2,y\n?,x\n";
        s.register("http://example/x.csv", csv);
        let expected = convert(csv, DataFormat::Csv, DataFormat::Arff).unwrap();
        for _ in 0..2 {
            assert_eq!(
                read(&s, "readArff", "http://example/x.csv").unwrap(),
                expected
            );
        }
        assert_eq!(read(&s, "readUrl", "http://example/x.csv").unwrap(), csv);
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
