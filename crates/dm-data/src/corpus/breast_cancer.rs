//! Deterministic reconstruction of the UCI breast-cancer dataset.
//!
//! Targets, all taken from Figure 3 of the paper (which is WEKA's
//! summary of the genuine dataset):
//!
//! * 286 instances, 10 attributes, all nominal ("Enum");
//! * class split 201 `no-recurrence-events` / 85 `recurrence-events`;
//! * 9 missing values (0.3% of cells): 8 on `node-caps`, 1 on
//!   `breast-quad`;
//! * observed distinct values per attribute:
//!   age 6, menopause 3, tumor-size 11, inv-nodes 7, node-caps 2,
//!   deg-malig 3, breast 2, breast-quad 5, irradiat 2, Class 2.
//!
//! The generator fixes, per class, the exact count of every attribute
//! value (tables below, chosen to match the genuine dataset's published
//! marginals where known and its qualitative structure otherwise), then
//! deals values to rows with a seeded shuffle. Because C4.5's split
//! selection depends only on per-attribute class-conditional counts,
//! fixing these tables pins the Figure-4 root split to `node-caps`.

use crate::arff::write_arff;
use crate::attribute::Attribute;
use crate::dataset::{Dataset, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::LazyLock;

/// Number of instances in the reconstructed dataset.
pub const NUM_INSTANCES: usize = 286;
/// Instances of the majority class (`no-recurrence-events`).
pub const NUM_NO_RECURRENCE: usize = 201;
/// Instances of the minority class (`recurrence-events`).
pub const NUM_RECURRENCE: usize = 85;

/// Seed for the row-assignment shuffles; changing it permutes rows but
/// leaves every statistic (and therefore E1/E2) unchanged.
const SEED: u64 = 0x1955_0706;

/// A per-attribute specification: label domain (as declared in the ARFF
/// header) plus, for each class, `(value_index_or_missing, count)`
/// pairs. `None` is a missing value.
struct Spec {
    name: &'static str,
    domain: &'static [&'static str],
    /// Counts for class 0 (`no-recurrence-events`); must sum to 201.
    no_recurrence: &'static [(Option<usize>, usize)],
    /// Counts for class 1 (`recurrence-events`); must sum to 85.
    recurrence: &'static [(Option<usize>, usize)],
}

/// The full ARFF domains mirror the genuine UCI header (some declared
/// labels are never observed, exactly as in the real data — e.g. ages
/// 10-19 and 80-99 are declared but absent, giving 6 observed distinct
/// values out of a 9-label domain).
const SPECS: &[Spec] = &[
    Spec {
        name: "age",
        domain: &[
            "10-19", "20-29", "30-39", "40-49", "50-59", "60-69", "70-79", "80-89", "90-99",
        ],
        no_recurrence: &[
            (Some(1), 1),
            (Some(2), 21),
            (Some(3), 63),
            (Some(4), 64),
            (Some(5), 44),
            (Some(6), 8),
        ],
        recurrence: &[
            (Some(2), 15),
            (Some(3), 27),
            (Some(4), 30),
            (Some(5), 11),
            (Some(6), 2),
        ],
    },
    Spec {
        name: "menopause",
        domain: &["lt40", "ge40", "premeno"],
        no_recurrence: &[(Some(0), 4), (Some(1), 94), (Some(2), 103)],
        recurrence: &[(Some(0), 3), (Some(1), 35), (Some(2), 47)],
    },
    Spec {
        name: "tumor-size",
        domain: &[
            "0-4", "5-9", "10-14", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45-49",
            "50-54", "55-59",
        ],
        no_recurrence: &[
            (Some(0), 7),
            (Some(1), 4),
            (Some(2), 27),
            (Some(3), 23),
            (Some(4), 34),
            (Some(5), 36),
            (Some(6), 35),
            (Some(7), 14),
            (Some(8), 15),
            (Some(9), 2),
            (Some(10), 4),
        ],
        recurrence: &[
            (Some(0), 1),
            (Some(2), 1),
            (Some(3), 7),
            (Some(4), 16),
            (Some(5), 18),
            (Some(6), 25),
            (Some(7), 5),
            (Some(8), 7),
            (Some(9), 1),
            (Some(10), 4),
        ],
    },
    Spec {
        name: "inv-nodes",
        domain: &[
            "0-2", "3-5", "6-8", "9-11", "12-14", "15-17", "18-20", "21-23", "24-26", "27-29",
            "30-32", "33-35", "36-39",
        ],
        no_recurrence: &[
            (Some(0), 167),
            (Some(1), 19),
            (Some(2), 7),
            (Some(3), 4),
            (Some(4), 2),
            (Some(5), 1),
            (Some(8), 1),
        ],
        recurrence: &[
            (Some(0), 46),
            (Some(1), 17),
            (Some(2), 10),
            (Some(3), 6),
            (Some(4), 1),
            (Some(5), 5),
        ],
    },
    Spec {
        name: "node-caps",
        domain: &["yes", "no"],
        no_recurrence: &[(Some(0), 25), (Some(1), 171), (None, 5)],
        recurrence: &[(Some(0), 31), (Some(1), 51), (None, 3)],
    },
    Spec {
        name: "deg-malig",
        domain: &["1", "2", "3"],
        no_recurrence: &[(Some(0), 59), (Some(1), 102), (Some(2), 40)],
        recurrence: &[(Some(0), 12), (Some(1), 28), (Some(2), 45)],
    },
    Spec {
        name: "breast",
        domain: &["left", "right"],
        no_recurrence: &[(Some(0), 103), (Some(1), 98)],
        recurrence: &[(Some(0), 49), (Some(1), 36)],
    },
    Spec {
        name: "breast-quad",
        domain: &["left_up", "left_low", "right_up", "right_low", "central"],
        no_recurrence: &[
            (Some(0), 60),
            (Some(1), 67),
            (Some(2), 30),
            (Some(3), 20),
            (Some(4), 23),
            (None, 1),
        ],
        recurrence: &[
            (Some(0), 20),
            (Some(1), 43),
            (Some(2), 12),
            (Some(3), 4),
            (Some(4), 6),
        ],
    },
    Spec {
        name: "irradiat",
        domain: &["yes", "no"],
        no_recurrence: &[(Some(0), 37), (Some(1), 164)],
        recurrence: &[(Some(0), 31), (Some(1), 54)],
    },
];

/// The reconstructed dataset, generated on first use. Every host a
/// toolkit provisions holds a copy (the URL reader's ARFF text, the
/// relational service's table, the local dataset tool), so a process
/// deals the rows once and hands out clones.
static BREAST_CANCER: LazyLock<Dataset> = LazyLock::new(generate);

/// [`BREAST_CANCER`] rendered as ARFF text, written on first use.
static BREAST_CANCER_ARFF: LazyLock<String> = LazyLock::new(|| write_arff(&BREAST_CANCER));

/// The reconstructed breast-cancer dataset (class attribute set to
/// `Class`, identical on every call).
///
/// ```
/// let ds = dm_data::corpus::breast_cancer();
/// assert_eq!(ds.num_instances(), 286);
/// assert_eq!(ds.class_counts().unwrap(), vec![201.0, 85.0]);
/// ```
pub fn breast_cancer() -> Dataset {
    BREAST_CANCER.clone()
}

/// Deal the count tables to rows: what [`breast_cancer`] returns.
fn generate() -> Dataset {
    let mut attributes: Vec<Attribute> = SPECS
        .iter()
        .map(|s| Attribute::nominal(s.name, s.domain.iter().copied()))
        .collect();
    attributes.push(Attribute::nominal(
        "Class",
        ["no-recurrence-events", "recurrence-events"],
    ));
    let mut ds = Dataset::new("breast-cancer", attributes);
    ds.set_class_index(Some(SPECS.len()))
        .expect("class index in range");

    let mut rng = StdRng::seed_from_u64(SEED);

    // Column-by-column assignment: for each attribute, expand the count
    // table into a value vector per class, shuffle it, and deal it to
    // the class's rows. Rows 0..201 are class 0, rows 201..286 class 1;
    // a final whole-row shuffle interleaves the classes.
    let ncols = SPECS.len() + 1;
    let mut matrix = vec![0.0f64; NUM_INSTANCES * ncols];
    for (r, cell) in matrix.iter_mut().enumerate() {
        let row = r / ncols;
        let col = r % ncols;
        if col == ncols - 1 {
            *cell = if row < NUM_NO_RECURRENCE { 0.0 } else { 1.0 };
        }
    }

    for (col, spec) in SPECS.iter().enumerate() {
        for (class, table, offset, len) in [
            (0usize, spec.no_recurrence, 0usize, NUM_NO_RECURRENCE),
            (1usize, spec.recurrence, NUM_NO_RECURRENCE, NUM_RECURRENCE),
        ] {
            let _ = class;
            let mut values: Vec<f64> = Vec::with_capacity(len);
            for &(v, count) in table {
                let encoded = match v {
                    Some(i) => Value::from_index(i),
                    None => Value::MISSING,
                };
                values.extend(std::iter::repeat_n(encoded, count));
            }
            assert_eq!(
                values.len(),
                len,
                "count table for {} class {class} must sum to {len}",
                spec.name
            );
            values.shuffle(&mut rng);
            for (i, v) in values.into_iter().enumerate() {
                matrix[(offset + i) * ncols + col] = v;
            }
        }
    }

    // Interleave classes with a row shuffle so folds and splits see a
    // mixed ordering, as the genuine file does.
    let mut order: Vec<usize> = (0..NUM_INSTANCES).collect();
    order.shuffle(&mut rng);
    for row in order {
        ds.push_row(matrix[row * ncols..(row + 1) * ncols].to_vec())
            .expect("row arity matches header");
    }
    ds
}

/// The reconstructed dataset rendered as ARFF text — what the paper's
/// URL-reader Web Service would fetch from the UCI repository.
pub fn breast_cancer_arff() -> String {
    BREAST_CANCER_ARFF.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::DatasetSummary;

    #[test]
    fn shape_matches_figure3_header() {
        let ds = breast_cancer();
        assert_eq!(ds.num_instances(), 286);
        assert_eq!(ds.num_attributes(), 10);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.num_discrete, 10);
        assert_eq!(s.num_continuous, 0);
        assert_eq!(s.missing_values, 9);
        assert_eq!(s.missing_pct, 0.3);
    }

    #[test]
    fn class_counts_match_paper() {
        let ds = breast_cancer();
        assert_eq!(ds.class_counts().unwrap(), vec![201.0, 85.0]);
    }

    #[test]
    fn distinct_counts_match_figure3() {
        let ds = breast_cancer();
        let s = DatasetSummary::of(&ds);
        let expected = [6, 3, 11, 7, 2, 3, 2, 5, 2, 2];
        for (row, want) in s.attributes.iter().zip(expected) {
            assert_eq!(row.distinct, want, "attribute {}", row.name);
        }
    }

    #[test]
    fn missing_counts_match_figure3() {
        let ds = breast_cancer();
        let s = DatasetSummary::of(&ds);
        let expected = [0, 0, 0, 0, 8, 0, 0, 1, 0, 0];
        for (row, want) in s.attributes.iter().zip(expected) {
            assert_eq!(row.missing, want, "attribute {}", row.name);
        }
        // node-caps present fraction rounds to 97%, as printed in Fig. 3.
        assert_eq!(s.attributes[4].nominal_pct, 97);
        assert_eq!(s.attributes[4].missing_pct, 3);
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(breast_cancer(), breast_cancer());
    }

    #[test]
    fn node_caps_class_table_is_pinned() {
        // The exact contingency table that makes node-caps the C4.5 root.
        let ds = breast_cancer();
        let nc = ds.attribute_index("node-caps").unwrap();
        let ci = ds.class_index().unwrap();
        let mut table = [[0usize; 2]; 2];
        let mut missing = 0;
        for r in 0..ds.num_instances() {
            let v = ds.value(r, nc);
            if Value::is_missing(v) {
                missing += 1;
            } else {
                table[Value::as_index(v)][Value::as_index(ds.value(r, ci))] += 1;
            }
        }
        assert_eq!(missing, 8);
        assert_eq!(table[0], [25, 31]); // yes: 56 total, 31 recur
        assert_eq!(table[1], [171, 51]); // no: 222 total, 51 recur
    }

    #[test]
    fn arff_roundtrip() {
        let text = breast_cancer_arff();
        let ds = crate::arff::parse_arff(&text).unwrap();
        assert_eq!(ds.num_instances(), 286);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.missing_values, 9);
    }

    #[test]
    fn classes_are_interleaved() {
        // The row shuffle must not leave all 201 majority rows first.
        let ds = breast_cancer();
        let ci = ds.class_index().unwrap();
        let first_50_minority = (0..50).filter(|&r| ds.value(r, ci) == 1.0).count();
        assert!(first_50_minority > 0, "row shuffle appears to be missing");
    }
}
