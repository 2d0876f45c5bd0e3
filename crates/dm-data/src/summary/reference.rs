//! `DatasetSummary::of` as it stood before nominal columns were
//! counted by code: every column's present values gathered through
//! `ColumnView::get` and sorted. Kept only as the oracle for the
//! differential test below.

use super::{pct, AttributeSummary, DatasetSummary};
use crate::attribute::AttributeKind;
use crate::dataset::Dataset;

pub(super) fn of(ds: &Dataset) -> DatasetSummary {
    let n = ds.num_instances();
    let mut rows = Vec::with_capacity(ds.num_attributes());
    let mut num_int = 0;
    let mut num_real = 0;
    let mut num_discrete = 0;
    let mut total_missing = 0;

    for a in 0..ds.num_attributes() {
        let attr = ds.attribute(a).expect("index in range");
        // Missing counts come straight off the validity bitmap
        // (popcount per word); the value scan only visits cells
        // the bitmap marks present, so no NaN probing is needed.
        let col = ds.column(a);
        let valid = col.validity();
        let missing = valid.count_missing();
        let mut ints = 0usize;
        let mut reals = 0usize;
        let mut values: Vec<f64> = Vec::with_capacity(n - missing);
        for r in 0..n {
            if valid.get(r) {
                let v = col.get(r);
                values.push(v);
                if v == v.trunc() {
                    ints += 1;
                } else {
                    reals += 1;
                }
            }
        }
        total_missing += missing;
        let present = n - missing;

        // Count distinct and unique values.
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN present"));
        let mut distinct = 0usize;
        let mut unique = 0usize;
        let mut i = 0;
        while i < values.len() {
            let mut j = i + 1;
            while j < values.len() && values[j] == values[i] {
                j += 1;
            }
            distinct += 1;
            if j - i == 1 {
                unique += 1;
            }
            i = j;
        }

        let (type_name, nominal_pct, int_pct, real_pct) = match attr.kind() {
            AttributeKind::Nominal(_) => {
                num_discrete += 1;
                ("Enum", pct(present as f64, n as f64), 0, 0)
            }
            AttributeKind::Numeric => {
                if reals == 0 {
                    num_int += 1;
                    ("Int", 0, pct(ints as f64, n as f64), 0)
                } else {
                    num_real += 1;
                    (
                        "Real",
                        0,
                        pct(ints as f64, n as f64),
                        pct(reals as f64, n as f64),
                    )
                }
            }
            AttributeKind::Str => ("Str", 0, 0, 0),
        };

        rows.push(AttributeSummary {
            name: attr.name().to_string(),
            type_name,
            nominal_pct,
            int_pct,
            real_pct,
            missing,
            missing_pct: pct(missing as f64, n as f64),
            distinct,
            unique,
            unique_pct: pct(unique as f64, n as f64),
        });
    }

    let cells = n * ds.num_attributes();
    let missing_pct = if cells == 0 {
        0.0
    } else {
        (1000.0 * total_missing as f64 / cells as f64).round() / 10.0
    };

    DatasetSummary {
        num_instances: n,
        num_attributes: ds.num_attributes(),
        num_int,
        num_real,
        num_continuous: num_int + num_real,
        num_discrete,
        missing_values: total_missing,
        missing_pct,
        attributes: rows,
    }
}

mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::corpus::{breast_cancer, irregular, nominal_classification, weather_numeric};

    fn assert_matches_oracle(ds: &Dataset, what: &str) {
        let (got, expected) = (DatasetSummary::of(ds), of(ds));
        // `Debug` renders `missing_pct` exactly.
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{what}");
        assert_eq!(got.to_table_string(), expected.to_table_string(), "{what}");
    }

    #[test]
    fn summary_matches_reference_on_generated_datasets() {
        for seed in 0..300u64 {
            assert_matches_oracle(&irregular(seed), &format!("seed {seed}"));
        }
    }

    #[test]
    fn summary_matches_reference_on_the_corpus() {
        let mut notes = Dataset::new("notes", vec![Attribute::string("note")]);
        for s in ["x", "y", "x", "", "z"] {
            let id = notes.intern_string(s);
            notes.push_row(vec![id as f64]).unwrap();
        }
        notes.push_row(vec![f64::NAN]).unwrap();
        for ds in [
            breast_cancer(),
            weather_numeric(),
            nominal_classification(300, 10, 4, 3, 0.1, 7),
            notes,
        ] {
            assert_matches_oracle(&ds, ds.relation());
        }
    }
}
