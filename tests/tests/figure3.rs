//! E1 — Figure 3: the breast-cancer dataset summary table must match
//! the published figure exactly, both computed locally and served by
//! the DataConversion Web Service.

#![forbid(unsafe_code)]

use dm_data::corpus::breast_cancer;
use dm_data::summary::DatasetSummary;

#[test]
fn figure3_header_block() {
    let s = DatasetSummary::of(&breast_cancer());
    assert_eq!(s.num_instances, 286);
    assert_eq!(s.num_attributes, 10);
    assert_eq!(s.num_continuous, 0);
    assert_eq!(s.num_int, 0);
    assert_eq!(s.num_real, 0);
    assert_eq!(s.num_discrete, 10);
    assert_eq!(s.missing_values, 9);
    assert_eq!(s.missing_pct, 0.3);
}

#[test]
fn figure3_per_attribute_rows() {
    let s = DatasetSummary::of(&breast_cancer());
    // (name, nominal%, missing, distinct) straight from the figure.
    let expected: [(&str, u32, usize, usize); 10] = [
        ("age", 100, 0, 6),
        ("menopause", 100, 0, 3),
        ("tumor-size", 100, 0, 11),
        ("inv-nodes", 100, 0, 7),
        ("node-caps", 97, 8, 2),
        ("deg-malig", 100, 0, 3),
        ("breast", 100, 0, 2),
        ("breast-quad", 100, 1, 5),
        ("irradiat", 100, 0, 2),
        ("Class", 100, 0, 2),
    ];
    for (row, (name, pct, missing, distinct)) in s.attributes.iter().zip(expected) {
        assert_eq!(row.name, name);
        assert_eq!(row.type_name, "Enum", "{name}");
        assert_eq!(row.nominal_pct, pct, "{name} nominal%");
        assert_eq!(row.missing, missing, "{name} missing");
        assert_eq!(row.distinct, distinct, "{name} distinct");
    }
}

#[test]
fn figure3_served_by_web_service() {
    let toolkit = faehim::Toolkit::new().unwrap();
    let table = toolkit
        .convert_client()
        .summary(&dm_data::corpus::breast_cancer_arff())
        .unwrap();
    assert!(table.contains("Num Instances 286"));
    assert!(table.contains("Missing values 9 / 0.3%"));
    for name in ["age", "menopause", "tumor-size", "inv-nodes", "node-caps"] {
        assert!(table.contains(name), "{name} missing from served table");
    }
}

#[test]
fn class_balance_matches_paper_intro() {
    // §5.1: "201 instances of one class and 85 instances of another".
    let ds = breast_cancer();
    assert_eq!(ds.class_counts().unwrap(), vec![201.0, 85.0]);
}
