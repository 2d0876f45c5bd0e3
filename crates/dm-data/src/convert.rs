//! Format converters: the "data set manipulation tools" of the paper's
//! toolbox (§4.3) — CSV↔ARFF translation plus a registry of named
//! converters so the workflow layer can offer a converter library
//! ("a library of such converters may be necessary", §3.1).

use crate::arff::{parse_arff, write_arff};
use crate::csv::{parse_csv, write_csv};
use crate::dataset::Dataset;
use crate::error::{DataError, Result};

/// Data interchange formats understood by the toolkit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFormat {
    /// Attribute-Relation File Format (WEKA native).
    Arff,
    /// Comma Separated Values.
    Csv,
}

impl DataFormat {
    /// Parse a format name (case-insensitive; accepts file extensions).
    pub fn from_name(name: &str) -> Result<DataFormat> {
        match name
            .trim()
            .trim_start_matches('.')
            .to_ascii_lowercase()
            .as_str()
        {
            "arff" => Ok(DataFormat::Arff),
            "csv" => Ok(DataFormat::Csv),
            other => Err(DataError::InvalidParameter(format!(
                "unknown data format {other:?}"
            ))),
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DataFormat::Arff => "arff",
            DataFormat::Csv => "csv",
        }
    }

    /// Guess the format of raw text (ARFF files start with `@relation`
    /// or a `%` comment block).
    pub fn sniff(text: &str) -> DataFormat {
        for line in text.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            if t.to_ascii_lowercase().starts_with("@relation") {
                return DataFormat::Arff;
            }
            break;
        }
        DataFormat::Csv
    }
}

/// Parse `text` in the given format.
pub fn parse(format: DataFormat, text: &str) -> Result<Dataset> {
    match format {
        DataFormat::Arff => parse_arff(text),
        DataFormat::Csv => parse_csv(text),
    }
}

/// Serialise `ds` in the given format.
pub fn write(format: DataFormat, ds: &Dataset) -> String {
    match format {
        DataFormat::Arff => write_arff(ds),
        DataFormat::Csv => write_csv(ds),
    }
}

/// Convert text from one format to another. CSV → ARFF performs type
/// inference (numeric columns stay numeric, everything else becomes a
/// nominal enumeration), matching the paper's CSV-to-ARFF tool.
///
/// ```
/// use dm_data::convert::{convert, DataFormat};
/// let arff = convert("a,b\n1,x\n2,y\n", DataFormat::Csv, DataFormat::Arff).unwrap();
/// assert!(arff.contains("@attribute a numeric"));
/// assert!(arff.contains("{x,y}"));
/// ```
pub fn convert(text: &str, from: DataFormat, to: DataFormat) -> Result<String> {
    let ds = parse(from, text)?;
    Ok(write(to, &ds))
}

/// A named converter entry, as presented in the workflow toolbox.
#[derive(Debug, Clone)]
pub struct Converter {
    /// Toolbox name, e.g. `"CSVToARFF"`.
    pub name: &'static str,
    /// Source format.
    pub from: DataFormat,
    /// Target format.
    pub to: DataFormat,
}

/// The converter library shipped with the toolkit.
pub fn converter_library() -> Vec<Converter> {
    vec![
        Converter {
            name: "CSVToARFF",
            from: DataFormat::Csv,
            to: DataFormat::Arff,
        },
        Converter {
            name: "ARFFToCSV",
            from: DataFormat::Arff,
            to: DataFormat::Csv,
        },
    ]
}

impl Converter {
    /// Apply this converter to raw text.
    pub fn apply(&self, text: &str) -> Result<String> {
        convert(text, self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_to_arff_and_back() {
        let csv = "age,class\n30,recur\n40,no-recur\n";
        let arff = convert(csv, DataFormat::Csv, DataFormat::Arff).unwrap();
        assert!(arff.contains("@relation"));
        let back = convert(&arff, DataFormat::Arff, DataFormat::Csv).unwrap();
        let ds = parse(DataFormat::Csv, &back).unwrap();
        assert_eq!(ds.num_instances(), 2);
        assert_eq!(ds.instance(0).label(1), Some("recur"));
    }

    #[test]
    fn sniffing() {
        assert_eq!(
            DataFormat::sniff("% hi\n@relation x\n@data\n"),
            DataFormat::Arff
        );
        assert_eq!(DataFormat::sniff("a,b\n1,2\n"), DataFormat::Csv);
    }

    #[test]
    fn format_names() {
        assert_eq!(DataFormat::from_name("ARFF").unwrap(), DataFormat::Arff);
        assert_eq!(DataFormat::from_name(".csv").unwrap(), DataFormat::Csv);
        assert!(DataFormat::from_name("xls").is_err());
        assert_eq!(DataFormat::Arff.name(), "arff");
    }

    #[test]
    fn library_contains_both_directions() {
        let lib = converter_library();
        assert!(lib.iter().any(|c| c.name == "CSVToARFF"));
        assert!(lib.iter().any(|c| c.name == "ARFFToCSV"));
        let c = &lib[0];
        assert!(c.apply("x\n1\n").unwrap().contains("@data"));
    }

    #[test]
    fn missing_values_survive_conversion() {
        let csv = "a,b\n1,x\n,y\n";
        let arff = convert(csv, DataFormat::Csv, DataFormat::Arff).unwrap();
        let ds = parse(DataFormat::Arff, &arff).unwrap();
        assert!(ds.instance(1).is_missing(0));
    }
}
