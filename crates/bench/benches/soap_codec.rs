//! SOAP envelope codec micro-benchmarks: encode/decode cost for small
//! control-plane calls, bulk dataset-bearing calls, and list-shaped
//! responses, plus the two case-study responses that dominate codec
//! time: J48's `classifyGraph` SVG (entity-dense text) and the
//! 286-label `classifyInstances` prediction list. Guards the
//! single-buffer envelope writers and the one-pass envelope reader.
//!
//! Prints a table of each envelope's size and its median encode and
//! decode time per envelope and per byte.

use dm_bench::{banner, breast_cancer_arff, case_study_responses, median_nanos};
use dm_wsrf::soap::{SoapCall, SoapResponse, SoapValue};
use std::hint::black_box;

/// One envelope shape: a call, or a response to an operation.
enum Shape {
    Call(SoapCall),
    Response(SoapResponse, &'static str),
}

impl Shape {
    fn encode(&self) -> String {
        match self {
            Shape::Call(call) => call.to_envelope(),
            Shape::Response(response, operation) => response.to_envelope(operation),
        }
    }

    fn decode(&self, xml: &str) {
        match self {
            Shape::Call(_) => {
                black_box(SoapCall::from_envelope(xml).expect("decode"));
            }
            Shape::Response(..) => {
                black_box(SoapResponse::from_envelope(xml).expect("decode"));
            }
        }
    }
}

fn main() {
    banner(
        "codec",
        "SOAP envelope encode/decode (control calls, bulk datasets, list and SVG responses)",
    );

    let small =
        SoapCall::new("Classifier", "getOptions").arg("name", SoapValue::Text("J48".into()));
    let bulk = SoapCall::new("Classifier", "classifyInstance")
        .arg("dataset", SoapValue::Text(breast_cancer_arff().to_string()))
        .arg("classifier", SoapValue::Text("J48".into()))
        .arg("options", SoapValue::Text(String::new()))
        .arg("attribute", SoapValue::Text("Class".into()));
    let list = SoapResponse::Value(SoapValue::List(
        (0..40)
            .map(|i| SoapValue::Text(format!("algorithm-{i}")))
            .collect(),
    ));
    let (svg, predictions) = case_study_responses();

    let shapes = [
        ("small_call", Shape::Call(small)),
        ("bulk_call", Shape::Call(bulk)),
        ("list_response", Shape::Response(list, "getClassifiers")),
        (
            "svg_response",
            Shape::Response(SoapResponse::Value(svg), "classifyGraph"),
        ),
        (
            "predictions_response",
            Shape::Response(SoapResponse::Value(predictions), "classifyInstances"),
        ),
    ];
    let envelopes: Vec<String> = shapes.iter().map(|(_, shape)| shape.encode()).collect();

    println!(
        "{:<22} {:>9} {:>11} {:>9} {:>11} {:>9}",
        "envelope", "bytes", "encode", "ns/B", "decode", "ns/B"
    );
    for ((label, shape), xml) in shapes.iter().zip(&envelopes) {
        let encode = median_nanos(|| {
            black_box(black_box(shape).encode());
        });
        let decode = median_nanos(|| shape.decode(black_box(xml)));
        let bytes = xml.len() as f64;
        println!(
            "{label:<22} {:>9} {:>8.2} us {:>9.2} {:>8.2} us {:>9.2}",
            xml.len(),
            encode / 1e3,
            encode / bytes,
            decode / 1e3,
            decode / bytes,
        );
    }
}
