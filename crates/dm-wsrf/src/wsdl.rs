//! WSDL-style service descriptions.
//!
//! "A Web Service is imported to the workspace by providing its WSDL
//! interface. Once the interface is provided Triana creates a tool for
//! each operation provided by the service" (§4). This module models the
//! parts of WSDL 1.1 that behaviour needs: a service name, an endpoint
//! address, and a port type listing operations with named, typed input
//! parts and one output part — with XML rendering and parsing so the
//! import path exercises a real document.
//!
//! [`WsdlDocument::to_xml`] writes the pretty-printed text straight
//! into one buffer of the exact size, and [`WsdlDocument::xml_len`]
//! counts the same bytes without writing them, which is all a `?wsdl`
//! fetch needs to charge the wire. Both run one writer over a sink, so
//! they cannot disagree. Parsing still builds an element tree.

use crate::error::{Result, WsError};
use crate::xml::{escape_into, escaped_len, parse};

/// A message part: name and XSD-ish type (`string`, `long`, `double`,
/// `boolean`, `base64Binary`, `list`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// Part name, e.g. `dataset`.
    pub name: String,
    /// Type name, e.g. `string`.
    pub type_name: String,
}

impl Part {
    /// Create a part.
    pub fn new<N: Into<String>, T: Into<String>>(name: N, type_name: T) -> Part {
        Part {
            name: name.into(),
            type_name: type_name.into(),
        }
    }
}

/// One operation of a port type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name, e.g. `classifyInstance`.
    pub name: String,
    /// Input parts in call order.
    pub inputs: Vec<Part>,
    /// Output part.
    pub output: Part,
    /// One-line human documentation.
    pub documentation: String,
}

impl Operation {
    /// Create an operation.
    pub fn new<N: Into<String>>(name: N, inputs: Vec<Part>, output: Part) -> Operation {
        Operation {
            name: name.into(),
            inputs,
            output,
            documentation: String::new(),
        }
    }

    /// Builder: attach documentation.
    pub fn doc<D: Into<String>>(mut self, d: D) -> Operation {
        self.documentation = d.into();
        self
    }
}

/// A WSDL document: service name, endpoint, and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsdlDocument {
    /// Service name, e.g. `ClassifierService`.
    pub service: String,
    /// Endpoint address, e.g. `http://host-a:8080/axis/Classifier`.
    pub endpoint: String,
    /// Operations of the (single) port type.
    pub operations: Vec<Operation>,
}

impl WsdlDocument {
    /// Create a document.
    pub fn new<S: Into<String>, E: Into<String>>(service: S, endpoint: E) -> WsdlDocument {
        WsdlDocument {
            service: service.into(),
            endpoint: endpoint.into(),
            operations: Vec::new(),
        }
    }

    /// Builder: add an operation.
    pub fn operation(mut self, op: Operation) -> WsdlDocument {
        self.operations.push(op);
        self
    }

    /// Operation lookup by name.
    pub fn find_operation(&self, name: &str) -> Result<&Operation> {
        self.operations
            .iter()
            .find(|o| o.name == name)
            .ok_or_else(|| WsError::UnknownOperation {
                service: self.service.clone(),
                operation: name.into(),
            })
    }

    /// Render as a WSDL 1.1-flavoured XML document, two-space indented
    /// with a trailing newline, into one buffer of the exact size.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_len());
        self.write(&mut out);
        out
    }

    /// Length in bytes of [`WsdlDocument::to_xml`]'s output, counted
    /// without writing it: what a `?wsdl` fetch puts on the wire.
    pub fn xml_len(&self) -> usize {
        let mut len = Len(0);
        self.write(&mut len);
        len.0
    }

    /// Write the document: every message (each operation's request,
    /// then its response), the port type, then the service and its
    /// port. An element with neither children nor text self-closes.
    fn write(&self, out: &mut impl Sink) {
        let service = self.service.as_str();
        out.raw("<wsdl:definitions name=\"");
        out.escaped(service);
        out.raw("\" targetNamespace=\"urn:");
        out.escaped(service);
        out.raw(concat!(
            "\" xmlns:wsdl=\"http://schemas.xmlsoap.org/wsdl/\"",
            " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">"
        ));
        for op in &self.operations {
            out.raw("\n  <wsdl:message name=\"");
            out.escaped(&op.name);
            if op.inputs.is_empty() {
                out.raw("Request\"/>");
            } else {
                out.raw("Request\">");
                for part in &op.inputs {
                    write_part(out, part);
                }
                out.raw("\n  </wsdl:message>");
            }
            out.raw("\n  <wsdl:message name=\"");
            out.escaped(&op.name);
            out.raw("Response\">");
            write_part(out, &op.output);
            out.raw("\n  </wsdl:message>");
        }
        out.raw("\n  <wsdl:portType name=\"");
        out.escaped(service);
        if self.operations.is_empty() {
            out.raw("PortType\"/>");
        } else {
            out.raw("PortType\">");
            for op in &self.operations {
                out.raw("\n    <wsdl:operation name=\"");
                out.escaped(&op.name);
                out.raw("\">");
                if !op.documentation.is_empty() {
                    out.raw("\n      <wsdl:documentation>");
                    out.escaped(&op.documentation);
                    out.raw("</wsdl:documentation>");
                }
                out.raw("\n      <wsdl:input message=\"");
                out.escaped(&op.name);
                out.raw("Request\"/>\n      <wsdl:output message=\"");
                out.escaped(&op.name);
                out.raw("Response\"/>\n    </wsdl:operation>");
            }
            out.raw("\n  </wsdl:portType>");
        }
        out.raw("\n  <wsdl:service name=\"");
        out.escaped(service);
        out.raw("\">\n    <wsdl:port name=\"");
        out.escaped(service);
        out.raw("Port\">\n      <soap:address location=\"");
        out.escaped(&self.endpoint);
        out.raw("\"/>\n    </wsdl:port>\n  </wsdl:service>\n</wsdl:definitions>\n");
    }

    /// Parse a document produced by [`WsdlDocument::to_xml`].
    pub fn from_xml(xml: &str) -> Result<WsdlDocument> {
        let doc = parse(xml)?;
        let service_el = doc
            .find("service")
            .ok_or_else(|| WsError::Malformed("no wsdl:service".into()))?;
        let service = service_el
            .attribute("name")
            .ok_or_else(|| WsError::Malformed("service has no name".into()))?
            .to_string();
        let endpoint = service_el
            .find("port")
            .and_then(|p| p.find("address"))
            .and_then(|a| a.attribute("location"))
            .unwrap_or("")
            .to_string();

        // Index messages.
        let mut messages: Vec<(String, Vec<Part>)> = Vec::new();
        for m in doc.find_all("message") {
            let name = m.attribute("name").unwrap_or("").to_string();
            let parts = m
                .find_all("part")
                .map(|p| {
                    Part::new(
                        p.attribute("name").unwrap_or(""),
                        p.attribute("type")
                            .unwrap_or("xsd:string")
                            .trim_start_matches("xsd:"),
                    )
                })
                .collect();
            messages.push((name, parts));
        }
        let lookup = |name: &str| -> Vec<Part> {
            messages
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.clone())
                .unwrap_or_default()
        };

        let port_type = doc
            .find("portType")
            .ok_or_else(|| WsError::Malformed("no wsdl:portType".into()))?;
        let operations = port_type
            .find_all("operation")
            .map(|op_el| -> Result<Operation> {
                let name = op_el
                    .attribute("name")
                    .ok_or_else(|| WsError::Malformed("operation has no name".into()))?
                    .to_string();
                let in_msg = op_el
                    .find("input")
                    .and_then(|i| i.attribute("message"))
                    .unwrap_or("")
                    .to_string();
                let out_msg = op_el
                    .find("output")
                    .and_then(|o| o.attribute("message"))
                    .unwrap_or("")
                    .to_string();
                let inputs = lookup(&in_msg);
                let output = lookup(&out_msg)
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| Part::new("return", "string"));
                let documentation = op_el
                    .find("documentation")
                    .map(|d| d.text.clone())
                    .unwrap_or_default();
                Ok(Operation {
                    name,
                    inputs,
                    output,
                    documentation,
                })
            })
            .collect::<Result<_>>()?;

        Ok(WsdlDocument {
            service,
            endpoint,
            operations,
        })
    }
}

/// One `<wsdl:part>` of a message, at the depth messages nest it.
fn write_part(out: &mut impl Sink, part: &Part) {
    out.raw("\n    <wsdl:part name=\"");
    out.escaped(&part.name);
    out.raw("\" type=\"xsd:");
    out.escaped(&part.type_name);
    out.raw("\"/>");
}

/// Where [`WsdlDocument::write`] sends the document: a `String`, or a
/// byte count.
trait Sink {
    /// Append `s` as it is.
    fn raw(&mut self, s: &str);
    /// Append `s` with the five XML special bytes escaped.
    fn escaped(&mut self, s: &str);
}

impl Sink for String {
    fn raw(&mut self, s: &str) {
        self.push_str(s);
    }

    fn escaped(&mut self, s: &str) {
        escape_into(s, self);
    }
}

/// Counts the bytes a `String` sink would hold.
struct Len(usize);

impl Sink for Len {
    fn raw(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn escaped(&mut self, s: &str) {
        self.0 += escaped_len(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier_wsdl() -> WsdlDocument {
        WsdlDocument::new("Classifier", "http://host-a:8080/axis/Classifier")
            .operation(
                Operation::new("getClassifiers", vec![], Part::new("classifiers", "list"))
                    .doc("list the classifiers known to the service"),
            )
            .operation(Operation::new(
                "getOptions",
                vec![Part::new("classifier", "string")],
                Part::new("options", "list"),
            ))
            .operation(Operation::new(
                "classifyInstance",
                vec![
                    Part::new("dataset", "string"),
                    Part::new("classifier", "string"),
                    Part::new("options", "string"),
                    Part::new("attribute", "string"),
                ],
                Part::new("model", "string"),
            ))
    }

    #[test]
    fn xml_roundtrip() {
        let doc = classifier_wsdl();
        let xml = doc.to_xml();
        assert!(xml.contains("wsdl:definitions"));
        assert!(xml.contains("classifyInstance"));
        let back = WsdlDocument::from_xml(&xml).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn operation_lookup() {
        let doc = classifier_wsdl();
        assert!(doc.find_operation("getOptions").is_ok());
        assert!(matches!(
            doc.find_operation("bogus"),
            Err(WsError::UnknownOperation { .. })
        ));
    }

    #[test]
    fn four_inputs_of_classify_instance() {
        // §4.1: "The classify operation has 4 inputs: classifier name,
        // options, data set in ARFF format and attribute name".
        let doc = classifier_wsdl();
        let op = doc.find_operation("classifyInstance").unwrap();
        assert_eq!(op.inputs.len(), 4);
    }

    #[test]
    fn documentation_roundtrips() {
        let doc = classifier_wsdl();
        let back = WsdlDocument::from_xml(&doc.to_xml()).unwrap();
        assert_eq!(
            back.find_operation("getClassifiers").unwrap().documentation,
            "list the classifiers known to the service"
        );
    }

    #[test]
    fn endpoint_preserved() {
        let back = WsdlDocument::from_xml(&classifier_wsdl().to_xml()).unwrap();
        assert_eq!(back.endpoint, "http://host-a:8080/axis/Classifier");
    }

    #[test]
    fn special_bytes_roundtrip_and_the_length_is_exact() {
        let doc = WsdlDocument::new("A<&>\"'", "http://h/?a=1&b=\"2\"")
            .operation(
                Operation::new(
                    "op<1>",
                    vec![Part::new("x&y", "str'ing")],
                    Part::new("r", "l\"st"),
                )
                .doc("a < b && c > 'd' \"e\""),
            )
            .operation(Operation::new("bare", vec![], Part::new("out", "string")));
        let xml = doc.to_xml();
        assert_eq!(doc.xml_len(), xml.len());
        assert_eq!(WsdlDocument::from_xml(&xml).unwrap(), doc);
        let empty = WsdlDocument::new("Empty", "");
        assert!(empty
            .to_xml()
            .contains("<wsdl:portType name=\"EmptyPortType\"/>"));
        assert_eq!(empty.xml_len(), empty.to_xml().len());
    }

    #[test]
    fn malformed_rejected() {
        assert!(WsdlDocument::from_xml("<x/>").is_err());
    }
}
