//! SOAP envelope codec micro-benchmarks: encode/decode cost for small
//! control-plane calls, a call whose arguments are all shorter than the
//! text scans' 32-byte chunk, bulk dataset-bearing calls, and list-shaped
//! responses, plus the responses that dominate codec time: J48's
//! `classifyGraph` SVG (entity-dense text), the case study's 286-label
//! `classifyInstances` prediction list, and the 800-label prediction list
//! that is `mining_session`'s largest `classifyInstances` answer. Guards
//! the single-buffer envelope writers and the one-pass envelope reader.
//!
//! Every envelope must decode back to what it encoded (the bench panics
//! otherwise). Then it prints a table of each envelope's size and its
//! median encode and decode time per envelope and per byte, and the
//! median time to compute the size of its arguments or return value
//! without writing them (`serialized_size`, which the pass-by-reference
//! accounting calls, and whose cost is the text scan's `escaped_len`).

#![forbid(unsafe_code)]

use dm_bench::{banner, breast_cancer_arff, case_study_responses, median_nanos};
use dm_data::arff::write_arff;
use dm_data::corpus::nominal_classification;
use dm_services::classifier_ws::ClassifierService;
use dm_wsrf::container::WebService;
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

    /// The exact bytes of the arguments' or the return value's
    /// elements, computed without writing them.
    fn size(&self) -> usize {
        match self {
            Shape::Call(call) => call
                .args
                .iter()
                .map(|(name, value)| value.serialized_size(name))
                .sum(),
            Shape::Response(SoapResponse::Value(value), _) => value.serialized_size("return"),
            Shape::Response(SoapResponse::Fault { .. }, _) => 0,
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

    /// Panic unless `xml` decodes back to this shape.
    fn assert_round_trip(&self, label: &str, xml: &str) {
        match self {
            Shape::Call(call) => assert_eq!(
                &SoapCall::from_envelope(xml).expect("decode"),
                call,
                "{label} does not round-trip"
            ),
            Shape::Response(response, _) => assert_eq!(
                &SoapResponse::from_envelope(xml).expect("decode"),
                response,
                "{label} does not round-trip"
            ),
        }
    }
}

/// J48 on an 800-row, two-class synthetic set (the largest dataset of
/// `mining_session`'s pool), scoring its own rows: 800 labels.
fn predictions_800() -> SoapValue {
    let arff = write_arff(&nominal_classification(800, 6, 3, 2, 0.1, 7));
    let text = |s: &str| SoapValue::Text(s.to_string());
    let args = vec![
        ("dataset".to_string(), text(&arff)),
        ("classifier".to_string(), text("J48")),
        ("options".to_string(), text("")),
        ("attribute".to_string(), text("class")),
        ("instances".to_string(), text(&arff)),
    ];
    ClassifierService::new()
        .invoke("classifyInstances", &args)
        .expect("J48 scores the batch")
}

fn main() {
    banner(
        "codec",
        "SOAP envelope encode/decode (control calls, bulk datasets, list and SVG responses)",
    );

    let small =
        SoapCall::new("Classifier", "getOptions").arg("name", SoapValue::Text("J48".into()));
    let short_args = SoapCall::new("Classifier", "classifyInstance")
        .arg("classifier", SoapValue::Text("J48".into()))
        .arg("options", SoapValue::Text("-C 0.25 -M 2".into()))
        .arg("attribute", SoapValue::Text("Class".into()))
        .arg(
            "instance",
            SoapValue::Text("'40-49','premeno','15-19'".into()),
        )
        .arg("label", SoapValue::Text("no-recurrence-events".into()))
        .arg("folds", SoapValue::Int(10))
        .arg("seed", SoapValue::Double(0.25));
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
        ("short_args_call", Shape::Call(short_args)),
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
        (
            "predictions_800",
            Shape::Response(SoapResponse::Value(predictions_800()), "classifyInstances"),
        ),
    ];
    let envelopes: Vec<String> = shapes.iter().map(|(_, shape)| shape.encode()).collect();
    for ((label, shape), xml) in shapes.iter().zip(&envelopes) {
        shape.assert_round_trip(label, xml);
    }

    println!(
        "{:<22} {:>9} {:>11} {:>9} {:>11} {:>9} {:>11}",
        "envelope", "bytes", "encode", "ns/B", "decode", "ns/B", "size"
    );
    for ((label, shape), xml) in shapes.iter().zip(&envelopes) {
        let encode = median_nanos(|| {
            black_box(black_box(shape).encode());
        });
        let decode = median_nanos(|| shape.decode(black_box(xml)));
        let size = median_nanos(|| {
            black_box(black_box(shape).size());
        });
        let bytes = xml.len() as f64;
        println!(
            "{label:<22} {:>9} {:>8.2} us {:>9.2} {:>8.2} us {:>9.2} {:>8.2} us",
            xml.len(),
            encode / 1e3,
            encode / bytes,
            decode / 1e3,
            decode / bytes,
            size / 1e3,
        );
    }
}
