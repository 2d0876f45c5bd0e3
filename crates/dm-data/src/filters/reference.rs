//! `Discretize::apply` and `SupervisedDiscretize::apply` as they stood
//! before the column-wise rebuild: a fresh dataset from the new header,
//! filled row by row through `push_row_weighted`, so its string table
//! starts empty. Kept only as the oracle for the differential tests
//! below: on every dataset without a present string cell the filters
//! must return exactly what these do.

use super::{Discretize, SupervisedDiscretize};
use crate::attribute::Attribute;
use crate::dataset::{Dataset, Value};
use crate::error::Result;

fn rebuild_row_by_row(
    ds: &Dataset,
    attributes: Vec<Attribute>,
    bin: impl Fn(usize, f64) -> Option<usize>,
) -> Result<Dataset> {
    let mut out = Dataset::new(ds.relation(), attributes);
    out.set_class_index(ds.class_index())?;
    for r in 0..ds.num_instances() {
        let row: Vec<f64> = (0..ds.num_attributes())
            .map(|a| {
                let v = ds.value(r, a);
                match bin(a, v) {
                    Some(b) if !Value::is_missing(v) => Value::from_index(b),
                    _ => v,
                }
            })
            .collect();
        out.push_row_weighted(row, ds.weight(r))?;
    }
    Ok(out)
}

pub(super) fn discretize(f: &Discretize, ds: &Dataset) -> Result<Dataset> {
    let attributes = ds
        .attributes()
        .iter()
        .enumerate()
        .map(|(a, attr)| match f.cuts[a] {
            Some(_) => {
                let labels: Vec<String> = (0..f.bins).map(|b| format!("bin{}", b + 1)).collect();
                Attribute::nominal(attr.name(), labels)
            }
            None => attr.clone(),
        })
        .collect();
    rebuild_row_by_row(ds, attributes, |a, v| {
        let (min, max) = f.cuts[a]?;
        if max == min {
            return Some(0);
        }
        let b = ((v - min) / (max - min) * f.bins as f64).floor() as usize;
        Some(b.min(f.bins - 1))
    })
}

pub(super) fn supervised(f: &SupervisedDiscretize, ds: &Dataset) -> Result<Dataset> {
    let attributes = ds
        .attributes()
        .iter()
        .enumerate()
        .map(|(a, attr)| match &f.cuts[a] {
            None => attr.clone(),
            Some(cuts) if cuts.is_empty() => Attribute::nominal(attr.name(), ["'All'".to_string()]),
            Some(cuts) => {
                let labels: Vec<String> = (0..=cuts.len())
                    .map(|b| {
                        if b == 0 {
                            format!("(-inf..{}]", cuts[0])
                        } else if b == cuts.len() {
                            format!("({}..inf)", cuts[b - 1])
                        } else {
                            format!("({}..{}]", cuts[b - 1], cuts[b])
                        }
                    })
                    .collect();
                Attribute::nominal(attr.name(), labels)
            }
        })
        .collect();
    rebuild_row_by_row(ds, attributes, |a, v| {
        let cuts = f.cuts[a].as_ref()?;
        Some(cuts.iter().take_while(|&&c| v > c).count())
    })
}

mod tests {
    use super::*;
    use crate::corpus::{breast_cancer, irregular, weather_numeric};
    use crate::filters::Filter;

    /// `Debug` renders every `f64` exactly (`-0.0` apart from `0.0`)
    /// and names each code buffer's width, so equal renderings are
    /// equal datasets bit for bit.
    fn assert_identical(got: &Result<Dataset>, expected: &Result<Dataset>, what: &str) {
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{what}");
    }

    /// Fit on `train`, apply to `data`, and compare both discretisers
    /// with their oracles.
    fn assert_filters_match(train: &Dataset, data: &Dataset, what: &str) {
        for bins in [2, 3, 10, 300] {
            let f = Discretize::fit(train, bins).unwrap();
            assert_identical(
                &f.apply(data),
                &discretize(&f, data),
                &format!("{what}, {bins} bins"),
            );
        }
        if let Ok(f) = SupervisedDiscretize::fit(train) {
            assert_identical(
                &f.apply(data),
                &supervised(&f, data),
                &format!("{what}, MDL"),
            );
            // Cells that fall on a cut point.
            let mut at_cuts = data.clone();
            for a in 0..data.num_attributes() {
                let cuts = f.cut_points(a);
                for r in 0..data.num_instances() {
                    if !cuts.is_empty()
                        && !data.is_missing(r, a)
                        && data.attributes()[a].is_numeric()
                    {
                        at_cuts.set_value(r, a, cuts[r % cuts.len()]);
                    }
                }
            }
            let what = format!("{what}, MDL at the cuts");
            assert_identical(&f.apply(&at_cuts), &supervised(&f, &at_cuts), &what);
        }
    }

    #[test]
    fn discretizers_match_reference_on_generated_datasets() {
        let mut mismatched_headers = 0;
        for seed in 0..300u64 {
            let ds = irregular(seed);
            assert_filters_match(&ds, &ds, &format!("seed {seed}"));
            // Fitted on the first half, applied to all: values outside
            // the fitted range.
            let half: Vec<usize> = (0..ds.num_instances() / 2).collect();
            assert_filters_match(&ds.select_rows(&half), &ds, &format!("seed {seed}, half"));
            // Another dataset of the same width: kinds that disagree
            // with the fitted header.
            let other = irregular(seed + 1000);
            if other.num_attributes() == ds.num_attributes()
                && other.attributes() != ds.attributes()
            {
                mismatched_headers += 1;
                assert_filters_match(&ds, &other, &format!("seed {seed} on seed {}", seed + 1000));
            }
        }
        assert!(mismatched_headers > 10, "{mismatched_headers}");
    }

    #[test]
    fn discretizers_match_reference_on_the_corpus() {
        for ds in [breast_cancer(), weather_numeric()] {
            assert_filters_match(&ds, &ds, ds.relation());
        }
    }
}
