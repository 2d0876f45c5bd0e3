//! The dense row-major dataset layout the engine used before it went
//! columnar, kept for E17's baseline kernels
//! (`benches/e17_kernel_throughput.rs`), the only code that reads it.

use dm_data::{Attribute, Dataset, Result};

/// A dense row-major snapshot of a dataset. Each row is the encoded
/// cell vector: `NaN` for missing, label indices for nominal cells,
/// string-pool ids for `Str` cells.
///
/// Deliberately not `PartialEq`: rows contain `NaN`, whose `f64`
/// equality would report every missing cell as unequal. Compare by
/// converting back with [`from_row_major`] and using `Dataset`
/// equality, which treats missing-as-missing.
#[derive(Debug, Clone)]
pub struct RowMajorDataset {
    /// Relation name.
    pub relation: String,
    /// Attribute headers, in column order.
    pub attributes: Vec<Attribute>,
    /// Class attribute index, if set.
    pub class_index: Option<usize>,
    /// Interned string pool (ids in `Str` cells index this).
    pub strings: Vec<String>,
    /// One encoded cell vector per instance.
    pub rows: Vec<Vec<f64>>,
    /// Per-instance weights, parallel to `rows`.
    pub weights: Vec<f64>,
}

/// Snapshot a columnar [`Dataset`] into the row-major layout.
pub fn to_row_major(ds: &Dataset) -> RowMajorDataset {
    let n = ds.num_instances();
    RowMajorDataset {
        relation: ds.relation().to_string(),
        attributes: ds.attributes().to_vec(),
        class_index: ds.class_index(),
        strings: ds.strings().to_vec(),
        rows: (0..n).map(|r| ds.row_values(r)).collect(),
        weights: (0..n).map(|r| ds.weight(r)).collect(),
    }
}

/// Rebuild a columnar [`Dataset`] from a row-major snapshot. The string
/// pool is re-interned in order, so `Str` cell ids stay valid.
pub fn from_row_major(rm: &RowMajorDataset) -> Result<Dataset> {
    let mut ds = Dataset::new(rm.relation.clone(), rm.attributes.clone());
    ds.set_class_index(rm.class_index)?;
    for s in &rm.strings {
        ds.intern_string(s.clone());
    }
    for (row, &w) in rm.rows.iter().zip(&rm.weights) {
        ds.push_row_weighted(row.clone(), w)?;
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::arff::{parse_arff, write_arff};
    use dm_data::corpus;

    #[test]
    fn row_major_roundtrip_over_arff_corpus() {
        // Every corpus dataset must survive parse → columnar →
        // row-major snapshot → columnar with exact Dataset equality
        // (values, missingness, class index, weights).
        let sources = [
            corpus::breast_cancer_arff(),
            write_arff(&corpus::weather_nominal()),
            write_arff(&corpus::weather_numeric()),
            write_arff(&corpus::nominal_classification(40, 4, 3, 2, 0.2, 7)),
        ];
        for (i, text) in sources.iter().enumerate() {
            let ds = parse_arff(text).unwrap();
            let back = from_row_major(&to_row_major(&ds)).unwrap();
            assert_eq!(ds, back, "corpus source {i}");
        }
    }

    #[test]
    fn row_major_roundtrip_with_strings_and_missing() {
        // String cells travel as pool ids; the pool must be re-interned
        // in order so ids stay stable, and missing cells (of every
        // attribute kind) must stay missing.
        let arff = "@relation notes\n\
                    @attribute id numeric\n\
                    @attribute note string\n\
                    @attribute grade {low,high}\n\
                    @data\n\
                    1,'first note',low\n\
                    2,?,high\n\
                    ?,'third note',?\n";
        let ds = parse_arff(arff).unwrap();
        assert_eq!(ds.strings().len(), 2);
        let rm = to_row_major(&ds);
        assert_eq!(rm.strings, ds.strings());
        let back = from_row_major(&rm).unwrap();
        assert_eq!(ds, back);
        assert_eq!(
            back.string_at(back.value(0, 1) as usize),
            Some("first note")
        );
        assert!(back.instance(1).is_missing(1));
        assert!(back.instance(2).is_missing(0));
        assert!(back.instance(2).is_missing(2));
    }

    #[test]
    fn row_major_preserves_weights_and_class() {
        let mut ds =
            parse_arff("@relation w\n@attribute x numeric\n@attribute c {a,b}\n@data\n1,a\n2,b\n")
                .unwrap();
        ds.set_class_index(Some(1)).unwrap();
        ds.set_weight(1, 2.5).unwrap();
        let back = from_row_major(&to_row_major(&ds)).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.class_index(), Some(1));
        assert_eq!(back.weight(1), 2.5);
    }

    /// A small mixed dataset drawn from `seed` (xorshift): one nominal
    /// attribute and two to five numeric ones, 1–29 rows, with missing
    /// cells.
    fn generated(seed: u64) -> Dataset {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let labels = ["alpha", "beta", "gamma", "delta"];
        let domain = &labels[..2 + (next() % 3) as usize];
        let n_numeric = 2 + (next() % 4) as usize;
        let rows = 1 + (next() % 29) as usize;
        let mut attrs = vec![Attribute::nominal("cat", domain.iter().copied())];
        for i in 0..n_numeric {
            attrs.push(Attribute::numeric(format!("x{i}")));
        }
        let mut ds = Dataset::new("prop", attrs);
        for _ in 0..rows {
            let r = next();
            let mut row = vec![if r % 13 == 0 {
                f64::NAN
            } else {
                (r % domain.len() as u64) as f64
            }];
            for _ in 0..n_numeric {
                let v = next();
                row.push(if v % 17 == 0 {
                    f64::NAN
                } else {
                    (v % 10_000) as f64 / 8.0 - 600.0
                });
            }
            ds.push_row(row).expect("arity");
        }
        ds
    }

    #[test]
    fn row_major_columnar_roundtrip_identity() {
        // Snapshotting to the row-major layout and rebuilding is the
        // identity, including missing cells (validity bitmaps), and it
        // composes with the textual ARFF round trip.
        for seed in 0..64 {
            let ds = generated(seed);
            let back = from_row_major(&to_row_major(&ds)).unwrap();
            assert_eq!(ds, back, "seed {seed}");
            let reparsed = parse_arff(&write_arff(&back)).unwrap();
            for r in 0..ds.num_instances() {
                for c in 0..ds.num_attributes() {
                    let (x, y) = (ds.value(r, c), reparsed.value(r, c));
                    assert_eq!(x.is_nan(), y.is_nan(), "seed {seed}, cell ({r}, {c})");
                    assert!(
                        x.is_nan() || (x - y).abs() <= 1e-9,
                        "seed {seed}, cell ({r}, {c}): {x} became {y}"
                    );
                }
            }
        }
    }
}
