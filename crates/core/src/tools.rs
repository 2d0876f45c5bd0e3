//! The local workspace tools of Figure 1 and §4.3 — the three tool
//! groups around the workflow engine:
//!
//! * **Data set manipulation tools** — [`LocalDataset`] ("a tool for
//!   loading a dataset into Triana and sending it to a Web Service"),
//!   [`CsvToArffTool`];
//! * **Processing tools** — [`ClassifierSelector`] ("display the
//!   classification algorithms … to allow the user to select an
//!   algorithm"), [`OptionSelector`] ("assist the user to select the
//!   options list"), [`AttributeSelector`] ("visualize the attributes
//!   embedded in a dataset" / select one), [`TreeAnalyser`];
//! * **Visualization tools** — [`TreeViewer`] (Figure 1's terminal
//!   task: "displays the output to the user … either graphing the
//!   output in a decision tree or generating the output in a textual
//!   form").

use dm_workflow::graph::{PortSpec, Token, Tool};
use dm_workflow::toolbox::Toolbox;
use parking_lot::RwLock;
use std::sync::Arc;

/// Register one instance of every local tool into `toolbox`.
pub fn register_local_tools(toolbox: &Toolbox) {
    toolbox.add(Arc::new(LocalDataset::breast_cancer()));
    toolbox.add(Arc::new(CsvToArffTool));
    toolbox.add(Arc::new(DatasetSummaryTool));
    toolbox.add(Arc::new(ClassifierSelector::new("J48")));
    toolbox.add(Arc::new(OptionSelector::defaults()));
    toolbox.add(Arc::new(AttributeSelector::new("Class")));
    toolbox.add(Arc::new(TreeAnalyser));
    toolbox.add(Arc::new(TreeViewer::new()));
}

/// Loads a dataset from the local filespace and emits it as ARFF text.
pub struct LocalDataset {
    arff: String,
}

impl LocalDataset {
    /// Wrap explicit ARFF text.
    pub fn new<A: Into<String>>(arff: A) -> LocalDataset {
        LocalDataset { arff: arff.into() }
    }

    /// The case study's breast-cancer dataset.
    pub fn breast_cancer() -> LocalDataset {
        LocalDataset {
            arff: dm_data::corpus::breast_cancer_arff(),
        }
    }
}

impl Tool for LocalDataset {
    fn name(&self) -> &str {
        "LocalDataset"
    }

    fn package(&self) -> &str {
        "DataManipulation"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("dataset", "string")]
    }

    fn execute(&self, _inputs: &[Token]) -> Result<Vec<Token>, String> {
        Ok(vec![Token::Text(self.arff.clone())])
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn memo_identity(&self) -> String {
        // The emitted dataset is configuration, not an input port, so
        // it must be part of the identity.
        format!(
            "LocalDataset:{:032x}",
            dm_wsrf::dataplane::hash_bytes(self.arff.as_bytes())
        )
    }
}

/// Converts CSV text into ARFF, locally (the toolbox's CSV→ARFF tool;
/// the Web Service variant lives in `dm-services`).
pub struct CsvToArffTool;

impl Tool for CsvToArffTool {
    fn name(&self) -> &str {
        "CSVToARFF"
    }

    fn package(&self) -> &str {
        "DataManipulation"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("csv", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("arff", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let csv = match &inputs[0] {
            Token::Text(s) => s,
            _ => return Err("CSVToARFF expects CSV text".into()),
        };
        dm_data::convert::convert(
            csv,
            dm_data::convert::DataFormat::Csv,
            dm_data::convert::DataFormat::Arff,
        )
        .map(|arff| vec![Token::Text(arff)])
        .map_err(|e| e.to_string())
    }

    fn is_pure(&self) -> bool {
        true
    }
}

/// Emits the Figure-3 summary table of a dataset.
pub struct DatasetSummaryTool;

impl Tool for DatasetSummaryTool {
    fn name(&self) -> &str {
        "DatasetSummary"
    }

    fn package(&self) -> &str {
        "DataManipulation"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("dataset", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("summary", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let text = match &inputs[0] {
            Token::Text(s) => s,
            _ => return Err("DatasetSummary expects dataset text".into()),
        };
        let format = dm_data::convert::DataFormat::sniff(text);
        let ds = dm_data::convert::parse(format, text).map_err(|e| e.to_string())?;
        Ok(vec![Token::Text(
            dm_data::summary::DatasetSummary::of(&ds).to_table_string(),
        )])
    }

    fn is_pure(&self) -> bool {
        true
    }
}

/// Presents the classifier list and passes on the user's selection.
pub struct ClassifierSelector {
    selection: String,
}

impl ClassifierSelector {
    /// Pre-select a classifier (the programmatic stand-in for the
    /// user's click in Triana's workspace).
    pub fn new<S: Into<String>>(selection: S) -> ClassifierSelector {
        ClassifierSelector {
            selection: selection.into(),
        }
    }
}

impl Tool for ClassifierSelector {
    fn name(&self) -> &str {
        "ClassifierSelector"
    }

    fn package(&self) -> &str {
        "Processing"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("classifiers", "list")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("classifier", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let list = match &inputs[0] {
            Token::List(l) => l,
            _ => return Err("ClassifierSelector expects the classifier list".into()),
        };
        let available: Vec<&str> = list.iter().filter_map(|v| v.as_text().ok()).collect();
        if available.iter().any(|&c| c == self.selection) {
            Ok(vec![Token::Text(self.selection.clone())])
        } else {
            Err(format!(
                "{:?} is not offered by the service (available: {available:?})",
                self.selection
            ))
        }
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn memo_identity(&self) -> String {
        format!("ClassifierSelector:{}", self.selection)
    }
}

/// Turns the `getOptions` descriptor list into a WEKA option string,
/// applying any user overrides over the defaults.
pub struct OptionSelector {
    overrides: Vec<(String, String)>,
}

impl OptionSelector {
    /// Accept every default.
    pub fn defaults() -> OptionSelector {
        OptionSelector {
            overrides: Vec::new(),
        }
    }

    /// Override selected flags.
    pub fn with_overrides(overrides: Vec<(String, String)>) -> OptionSelector {
        OptionSelector { overrides }
    }
}

impl Tool for OptionSelector {
    fn name(&self) -> &str {
        "OptionSelector"
    }

    fn package(&self) -> &str {
        "Processing"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("options", "list")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("optionString", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let list = match &inputs[0] {
            Token::List(l) => l,
            _ => return Err("OptionSelector expects the options list".into()),
        };
        let mut parts = Vec::new();
        for row in list {
            let cells = row.as_list().map_err(|e| e.to_string())?;
            let flag = cells
                .first()
                .and_then(|c| c.as_text().ok())
                .ok_or("option row without a flag")?;
            let default = cells.get(3).and_then(|c| c.as_text().ok()).unwrap_or("");
            let value = self
                .overrides
                .iter()
                .find(|(f, _)| f == flag)
                .map(|(_, v)| v.as_str())
                .unwrap_or(default);
            parts.push(format!("{flag} {value}"));
        }
        Ok(vec![Token::Text(parts.join(" "))])
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn memo_identity(&self) -> String {
        let mut id = String::from("OptionSelector");
        for (flag, value) in &self.overrides {
            id.push_str(&format!(":{flag}={value}"));
        }
        id
    }
}

/// Selects (and validates) the attribute the classifier should classify
/// on.
///
/// The check reads only the dataset's ARFF header
/// ([`dm_data::arff::parse_arff_header`]): an unknown attribute or a
/// malformed header fails the task, but the data rows are not decoded
/// here. A malformed data row is reported by the service that decodes
/// the rows: `classifyInstance` returns a Client fault.
pub struct AttributeSelector {
    attribute: String,
}

impl AttributeSelector {
    /// Pre-select an attribute name.
    pub fn new<S: Into<String>>(attribute: S) -> AttributeSelector {
        AttributeSelector {
            attribute: attribute.into(),
        }
    }
}

impl Tool for AttributeSelector {
    fn name(&self) -> &str {
        "AttributeSelector"
    }

    fn package(&self) -> &str {
        "Processing"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("dataset", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("attribute", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let arff = match &inputs[0] {
            Token::Text(s) => s,
            _ => return Err("AttributeSelector expects dataset text".into()),
        };
        let header = dm_data::arff::parse_arff_header(arff).map_err(|e| e.to_string())?;
        header
            .attribute_index(&self.attribute)
            .map_err(|e| e.to_string())?;
        Ok(vec![Token::Text(self.attribute.clone())])
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn memo_identity(&self) -> String {
        format!("AttributeSelector:{}", self.attribute)
    }
}

/// Analyses a textual decision tree: extracts the root attribute, leaf
/// count and tree size — the case study's output-analysis service.
pub struct TreeAnalyser;

impl Tool for TreeAnalyser {
    fn name(&self) -> &str {
        "TreeAnalyser"
    }

    fn package(&self) -> &str {
        "Processing"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("model", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("analysis", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let text = match &inputs[0] {
            Token::Text(s) => s,
            _ => return Err("TreeAnalyser expects the model text".into()),
        };
        let root = text
            .lines()
            .find(|l| l.contains(" = ") || l.contains(" <= "))
            .and_then(|l| l.split_whitespace().next())
            .unwrap_or("(leaf-only tree)");
        let leaves = text
            .lines()
            .find(|l| l.contains("Number of Leaves"))
            .and_then(|l| l.split(':').nth(1))
            .map(str::trim)
            .unwrap_or("?");
        let size = text
            .lines()
            .find(|l| l.contains("Size of the tree"))
            .and_then(|l| l.split(':').nth(1))
            .map(str::trim)
            .unwrap_or("?");
        Ok(vec![Token::Text(format!(
            "root attribute: {root}\nleaves: {leaves}\ntree size: {size}"
        ))])
    }

    fn is_pure(&self) -> bool {
        true
    }
}

/// The terminal viewer of Figure 1: retains everything shown and passes
/// it through.
#[derive(Default)]
pub struct TreeViewer {
    shown: RwLock<Vec<String>>,
}

impl TreeViewer {
    /// Create an empty viewer.
    pub fn new() -> TreeViewer {
        TreeViewer::default()
    }

    /// Everything displayed so far.
    pub fn shown(&self) -> Vec<String> {
        self.shown.read().clone()
    }
}

impl Tool for TreeViewer {
    fn name(&self) -> &str {
        "TreeViewer"
    }

    fn package(&self) -> &str {
        "Visualization"
    }

    fn input_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("content", "string")]
    }

    fn output_ports(&self) -> Vec<PortSpec> {
        vec![PortSpec::new("content", "string")]
    }

    fn execute(&self, inputs: &[Token]) -> Result<Vec<Token>, String> {
        let text = match &inputs[0] {
            Token::Text(s) => s.clone(),
            other => format!("{other:?}"),
        };
        self.shown.write().push(text.clone());
        Ok(vec![Token::Text(text)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_wsrf::container::WebService;
    use dm_wsrf::soap::SoapValue;

    #[test]
    fn local_dataset_emits_arff() {
        let out = LocalDataset::breast_cancer().execute(&[]).unwrap();
        match &out[0] {
            Token::Text(s) => assert!(s.contains("@relation breast-cancer")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn csv_tool_converts() {
        let out = CsvToArffTool
            .execute(&[Token::Text("a,b\n1,x\n".into())])
            .unwrap();
        match &out[0] {
            Token::Text(s) => assert!(s.contains("@attribute a numeric")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(CsvToArffTool.execute(&[Token::Int(1)]).is_err());
    }

    #[test]
    fn summary_tool_reproduces_figure3() {
        let arff = dm_data::corpus::breast_cancer_arff();
        let out = DatasetSummaryTool.execute(&[Token::Text(arff)]).unwrap();
        match &out[0] {
            Token::Text(s) => assert!(s.contains("Num Instances 286")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn classifier_selector_validates() {
        let list = Token::List(vec![Token::Text("ZeroR".into()), Token::Text("J48".into())]);
        let out = ClassifierSelector::new("J48")
            .execute(std::slice::from_ref(&list))
            .unwrap();
        assert_eq!(out, vec![Token::Text("J48".into())]);
        assert!(ClassifierSelector::new("C5.0").execute(&[list]).is_err());
    }

    #[test]
    fn option_selector_builds_string() {
        let options = Token::List(vec![
            Token::List(vec![
                Token::Text("-C".into()),
                Token::Text("confidence".into()),
                Token::Text("".into()),
                Token::Text("0.25".into()),
            ]),
            Token::List(vec![
                Token::Text("-M".into()),
                Token::Text("minNumObj".into()),
                Token::Text("".into()),
                Token::Text("2".into()),
            ]),
        ]);
        let defaults = OptionSelector::defaults()
            .execute(std::slice::from_ref(&options))
            .unwrap();
        assert_eq!(defaults, vec![Token::Text("-C 0.25 -M 2".into())]);
        let tuned = OptionSelector::with_overrides(vec![("-M".into(), "10".into())])
            .execute(&[options])
            .unwrap();
        assert_eq!(tuned, vec![Token::Text("-C 0.25 -M 10".into())]);
    }

    #[test]
    fn attribute_selector_validates() {
        let arff = dm_data::corpus::breast_cancer_arff();
        let out = AttributeSelector::new("Class")
            .execute(&[Token::Text(arff.clone())])
            .unwrap();
        assert_eq!(out, vec![Token::Text("Class".into())]);
        assert!(AttributeSelector::new("nope")
            .execute(&[Token::Text(arff.clone())])
            .is_err());

        // Only the header is read: a malformed data row still selects,
        // and the service that decodes the rows reports it instead.
        let bad_row = format!("{arff}not,a,row\n");
        assert!(dm_data::arff::parse_arff(&bad_row).is_err());
        let out = AttributeSelector::new("Class")
            .execute(&[Token::Text(bad_row.clone())])
            .unwrap();
        assert_eq!(out, vec![Token::Text("Class".into())]);
        let args = [
            ("dataset", bad_row.as_str()),
            ("classifier", "J48"),
            ("options", ""),
            ("attribute", "Class"),
        ]
        .map(|(name, value)| (name.to_string(), SoapValue::Text(value.into())));
        let fault = dm_services::classifier_ws::ClassifierService::new()
            .invoke("classifyInstance", &args)
            .unwrap_err();
        assert_eq!(fault.code, "Client");

        // A malformed header fails the task.
        let bad_header = format!("@bogus header line\n{arff}");
        assert!(AttributeSelector::new("Class")
            .execute(&[Token::Text(bad_header)])
            .is_err());
    }

    #[test]
    fn tree_analyser_extracts_structure() {
        let model = "J48 pruned tree\n------------------\n\nnode-caps = yes\n|   deg-malig = 3: recurrence-events (45.0)\n\nNumber of Leaves  : \t4\n\nSize of the tree : \t6\n";
        let out = TreeAnalyser.execute(&[Token::Text(model.into())]).unwrap();
        match &out[0] {
            Token::Text(s) => {
                assert!(s.contains("root attribute: node-caps"));
                assert!(s.contains("leaves: \t4") || s.contains("leaves: 4"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tree_viewer_retains() {
        let v = TreeViewer::new();
        v.execute(&[Token::Text("tree".into())]).unwrap();
        assert_eq!(v.shown(), vec!["tree".to_string()]);
    }

    #[test]
    fn registration_populates_folders() {
        let tb = dm_workflow::toolbox::Toolbox::new();
        register_local_tools(&tb);
        assert_eq!(tb.len(), 8);
        assert!(tb
            .tools_in("DataManipulation")
            .contains(&"CSVToARFF".to_string()));
        assert!(tb
            .tools_in("Processing")
            .contains(&"OptionSelector".to_string()));
        assert!(tb
            .tools_in("Visualization")
            .contains(&"TreeViewer".to_string()));
    }
}
