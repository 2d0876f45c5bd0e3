//! Malformed-input battery for the CSV and ARFF readers.
//!
//! Every case here must come back as a structured `DataError` — never a
//! panic, and never a silently corrupted dataset. The inputs cover the
//! failure classes seen from real exports: truncated quotes, ragged
//! rows, non-finite numeric literals, bad sparse indices, and header
//! declarations cut off mid-line.

#![forbid(unsafe_code)]

use dm_data::arff::parse_arff;
use dm_data::csv::{parse_csv, parse_csv_with, CsvOptions};
use dm_data::error::DataError;

#[test]
fn malformed_csv_is_rejected_not_panicked() {
    let rejected = [
        ("", "empty input"),
        ("\n\n", "blank lines only"),
        ("a,b\n1\n", "ragged short row"),
        ("a,b\n1,2,3\n", "ragged long row"),
        ("\"x\n", "unterminated quote in header"),
        ("a\n\"unterminated\n", "unterminated quote in data"),
    ];
    for (text, what) in rejected {
        match parse_csv(text) {
            Err(DataError::Parse { .. }) => {}
            other => panic!("{what}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn hostile_csv_still_parses_where_well_formed() {
    // Unicode headers and values, CRLF endings, headerless mode with a
    // leading all-empty header-looking row: all legal, none panic.
    let ds = parse_csv("é,ü\n1,2\n").unwrap();
    assert_eq!(ds.attribute(0).unwrap().name(), "é");
    let ds = parse_csv("a\n\u{1F600}\n").unwrap();
    assert_eq!(ds.instance(0).label(0), Some("\u{1F600}"));
    let opts = CsvOptions {
        has_header: false,
        ..CsvOptions::default()
    };
    let ds = parse_csv_with(",,,\n1,2,3,4\n", &opts).unwrap();
    assert_eq!(ds.num_attributes(), 4);
    assert_eq!(ds.num_instances(), 2);
}

#[test]
fn non_finite_csv_columns_degrade_to_nominal() {
    // "NaN"/"inf" parse as f64 but would corrupt the encoded matrix
    // (NaN aliases MISSING). They demote the column to nominal instead.
    for literal in ["NaN", "inf", "-inf", "Infinity"] {
        let ds = parse_csv(&format!("a,b\n{literal},2\n")).unwrap();
        assert!(
            ds.attribute(0).unwrap().is_nominal(),
            "{literal} inferred as numeric"
        );
        assert_eq!(ds.instance(0).label(0), Some(literal));
        assert!(!ds.instance(0).is_missing(0), "{literal} became missing");
    }
}

#[test]
fn malformed_arff_is_rejected_not_panicked() {
    let rejected = [
        ("", "empty input"),
        ("@data\n", "@data before any @attribute"),
        (
            "@relation t\n@attribute\n@data\n",
            "attribute without a name",
        ),
        (
            "@relation t\n@attribute a numeric\n@data\n1,2\n",
            "row wider than header",
        ),
        (
            "@relation t\n@attribute a {x\n@data\nx\n",
            "unterminated nominal domain",
        ),
        (
            "@relation t\n@attribute a numeric\n@data\n{0\n",
            "unterminated sparse row",
        ),
        (
            "@relation t\n@attribute a numeric\n@data\n{99 1}\n",
            "sparse index out of range",
        ),
        (
            "@relation t\n@attribute a numeric\n@data\n{x 1}\n",
            "non-integer sparse index",
        ),
        (
            "@relation t\n@attribute a {x,y}\n@data\n{0 z}\n",
            "sparse label outside domain",
        ),
        (
            "@relation t\n@attribute a {x,y}\n@data\nz\n",
            "dense label outside domain",
        ),
        (
            "@relation t\n@attribute a wibble\n@data\n1\n",
            "unsupported attribute type",
        ),
        ("@relation t\n@bogus\n@data\n", "unknown header directive"),
        (
            "@relation t\n@attribute a numeric\n@data\nNaN\n",
            "non-finite numeric literal",
        ),
        (
            "@relation t\n@attribute a numeric\n@data\n{0 inf}\n",
            "non-finite sparse literal",
        ),
        (
            "@relation t\n@attribute a numeric\n",
            "missing @data section",
        ),
    ];
    for (text, what) in rejected {
        match parse_arff(text) {
            Err(DataError::Parse { .. }) => {}
            other => panic!("{what}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn hostile_arff_still_parses_where_well_formed() {
    // Unicode names and labels, comments after data, empty nominal
    // domains with empty sparse rows.
    let ds = parse_arff("@relation t\n@attribute é {ü,ö}\n@data\nü\n").unwrap();
    assert_eq!(ds.instance(0).label(0), Some("ü"));
    let ds = parse_arff("@relation t\n@attribute a numeric % c\n@data\n1 % x\n").unwrap();
    assert_eq!(ds.value(0, 0), 1.0);
    let ds = parse_arff("@attribute a numeric\n@data\n{}\n").unwrap();
    assert_eq!(ds.value(0, 0), 0.0);
}
