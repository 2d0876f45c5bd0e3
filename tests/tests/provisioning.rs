//! Provisioning regressions: what a host is set up from stays what it
//! was while the work of setting it up moves.
//!
//! * `WsdlDocument::to_xml` writes its text directly; the element-tree
//!   build it replaced is kept here as the oracle, and the two must
//!   agree byte for byte on every deployed FAEHIM service and on
//!   generated documents full of XML special bytes. `xml_len`, what a
//!   `?wsdl` fetch charges, must be the written length.
//! * The standard corpora are generated once per process and handed
//!   out as clones; their texts are pinned by digest.
//! * A three-host toolkit's registry records, toolbox, wire counters
//!   and virtual clock after provisioning are pinned by digest.

#![forbid(unsafe_code)]

use dm_services::dataaccess_ws::DataAccessService;
use dm_services::deploy_faehim_suite;
use dm_wsrf::container::{ServiceContainer, WebService};
use dm_wsrf::dataplane::hash_bytes;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::wsdl::{Operation, Part, WsdlDocument};
use dm_wsrf::xml::XmlElement;
use faehim::Toolkit;
use std::fmt::Write as _;

/// The WSDL rendering `to_xml` replaced: build the element tree, then
/// pretty-print it.
fn tree_xml(wsdl: &WsdlDocument) -> String {
    let mut port_type =
        XmlElement::new("wsdl:portType").attr("name", format!("{}PortType", wsdl.service));
    let mut messages: Vec<XmlElement> = Vec::new();
    for op in &wsdl.operations {
        let in_msg = format!("{}Request", op.name);
        let out_msg = format!("{}Response", op.name);
        let mut input = XmlElement::new("wsdl:message").attr("name", in_msg.clone());
        for p in &op.inputs {
            input = input.child(
                XmlElement::new("wsdl:part")
                    .attr("name", p.name.clone())
                    .attr("type", format!("xsd:{}", p.type_name)),
            );
        }
        messages.push(input);
        messages.push(
            XmlElement::new("wsdl:message")
                .attr("name", out_msg.clone())
                .child(
                    XmlElement::new("wsdl:part")
                        .attr("name", op.output.name.clone())
                        .attr("type", format!("xsd:{}", op.output.type_name)),
                ),
        );
        let mut op_el = XmlElement::new("wsdl:operation").attr("name", op.name.clone());
        if !op.documentation.is_empty() {
            op_el = op_el
                .child(XmlElement::new("wsdl:documentation").with_text(op.documentation.clone()));
        }
        op_el = op_el
            .child(XmlElement::new("wsdl:input").attr("message", in_msg))
            .child(XmlElement::new("wsdl:output").attr("message", out_msg));
        port_type = port_type.child(op_el);
    }

    let mut doc = XmlElement::new("wsdl:definitions")
        .attr("name", wsdl.service.clone())
        .attr("targetNamespace", format!("urn:{}", wsdl.service))
        .attr("xmlns:wsdl", "http://schemas.xmlsoap.org/wsdl/")
        .attr("xmlns:xsd", "http://www.w3.org/2001/XMLSchema");
    for m in messages {
        doc = doc.child(m);
    }
    doc = doc.child(port_type);
    doc = doc.child(
        XmlElement::new("wsdl:service")
            .attr("name", wsdl.service.clone())
            .child(
                XmlElement::new("wsdl:port")
                    .attr("name", format!("{}Port", wsdl.service))
                    .child(XmlElement::new("soap:address").attr("location", wsdl.endpoint.clone())),
            ),
    );
    doc.to_pretty_xml()
}

/// Every service `deploy_faehim_suite` puts on a host, as that host
/// describes it.
fn suite_wsdls() -> Vec<WsdlDocument> {
    let container = ServiceContainer::new("host-a");
    let names = deploy_faehim_suite(&container).expect("suite deploys");
    assert_eq!(names.len(), 14);
    names
        .iter()
        .map(|name| container.wsdl_of(name).expect("deployed service"))
        .collect()
}

fn assert_matches_oracle(wsdl: &WsdlDocument, label: &str) {
    let xml = wsdl.to_xml();
    assert_eq!(
        xml,
        tree_xml(wsdl),
        "{label}: direct writer against the tree"
    );
    assert_eq!(wsdl.xml_len(), xml.len(), "{label}: counted length");
}

#[test]
fn direct_wsdl_writer_matches_the_tree_on_the_deployed_suite() {
    let wsdls = suite_wsdls();
    let mut all = String::new();
    for wsdl in &wsdls {
        assert_matches_oracle(wsdl, &wsdl.service);
        all.push_str(&wsdl.to_xml());
    }
    // The suite's 14 documents as the element tree wrote them.
    assert_eq!(
        (all.len(), format!("{:032x}", hash_bytes(all.as_bytes()))),
        (35_465, "d6ddbdbb012945c3ea73e9dae01a4cfb".to_string())
    );
}

/// splitmix64: a small deterministic generator for the documents below.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Text of 0 to 79 characters, mostly letters, with the five XML
    /// special bytes, spaces and a two-byte character mixed in, so that
    /// escapes fall inside and across the text layer's 32-byte chunks.
    fn text(&mut self) -> String {
        const ALPHABET: [&str; 16] = [
            "a", "b", "Q", "z", "7", "_", ":", " ", "é", "<", ">", "&", "\"", "'", "x", "y",
        ];
        let len = [0, 1, 5, 31, 32, 33, 79][self.below(7)];
        (0..len).map(|_| ALPHABET[self.below(16)]).collect()
    }

    fn part(&mut self) -> Part {
        Part::new(self.text(), self.text())
    }
}

#[test]
fn direct_wsdl_writer_matches_the_tree_on_generated_documents() {
    let mut g = Gen(0x5eed);
    for seed in 0..600 {
        let mut wsdl = WsdlDocument::new(g.text(), g.text());
        for _ in 0..g.below(5) {
            let inputs = (0..g.below(4)).map(|_| g.part()).collect();
            let mut op = Operation::new(g.text(), inputs, g.part());
            if g.below(3) > 0 {
                op = op.doc(g.text());
            }
            wsdl = wsdl.operation(op);
        }
        assert_matches_oracle(&wsdl, &format!("generated document {seed}"));
    }
    let specials = "<>&\"'";
    let wsdl = WsdlDocument::new(specials, specials).operation(
        Operation::new(
            specials,
            vec![Part::new(specials, specials)],
            Part::new(specials, specials),
        )
        .doc(specials),
    );
    assert_matches_oracle(&wsdl, "every field the five special bytes");
}

#[test]
fn standard_corpora_are_pinned() {
    let arff = dm_data::corpus::breast_cancer_arff();
    assert_eq!(
        arff,
        dm_data::arff::write_arff(&dm_data::corpus::breast_cancer())
    );
    assert_eq!(arff, dm_data::corpus::breast_cancer_arff());

    let service = DataAccessService::with_standard_resources();
    let table = |resource: &str| {
        let args = [("resource".to_string(), SoapValue::Text(resource.into()))];
        match service.invoke("query", &args).expect("query") {
            SoapValue::Text(text) => text,
            other => panic!("query answered {other:?}"),
        }
    };
    assert_eq!(table("breast_cancer"), arff);
    let digest = |text: &str| (text.len(), format!("{:032x}", hash_bytes(text.as_bytes())));
    assert_eq!(
        [digest(&arff), digest(&table("transactions"))],
        [
            (19_239, "005f48bd8ff4d75994ac31bcc33ce555".to_string()),
            (5_010, "72d2acdc9c084f20660b19c3912c8d6b".to_string())
        ]
    );
}

#[test]
fn a_three_host_toolkit_is_provisioned_as_before() {
    let toolkit = Toolkit::with_hosts(&["a", "b", "c"]).expect("toolkit");
    let mut records = toolkit.registry().view_snapshot();
    records.sort_by_key(|r| r.key());
    assert_eq!(records.len(), 42);
    let mut text = String::new();
    for r in &records {
        let e = &r.entry;
        writeln!(
            text,
            "{} v{} at {:?} tombstone {} | {} | {} | {:?} | {}",
            r.key(),
            r.version,
            r.heartbeat_at,
            r.tombstone,
            e.name,
            e.wsdl_url,
            e.categories,
            e.description
        )
        .unwrap();
    }
    text.push_str(&toolkit.toolbox().render());
    let network = toolkit.network();
    writeln!(
        text,
        "{:?}\nvirtual time {:?}",
        network.wire_stats(),
        network.virtual_time()
    )
    .unwrap();
    assert_eq!(
        (
            toolkit.toolbox().len(),
            network.wire_stats().bytes,
            format!("{:032x}", hash_bytes(text.as_bytes()))
        ),
        (75, 35_395, "78d8e12b07e538d392810d3588cdbcdb".to_string())
    );
}
