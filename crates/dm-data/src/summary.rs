//! Dataset summary statistics, reproducing the per-attribute table of
//! **Figure 3** of the paper ("Information about the Breast cancer
//! data"), which is the WEKA `Instances` summary: for each attribute its
//! type, the percentage of nominal / integer / real values, the missing
//! count and percentage, the number of distinct values, and the number
//! of values occurring exactly once ("unique").

use crate::attribute::AttributeKind;
use crate::dataset::Dataset;

#[cfg(test)]
mod reference;

/// Summary row for a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSummary {
    /// Attribute name.
    pub name: String,
    /// Display type: `"Enum"`, `"Int"`, `"Real"`, or `"Str"`.
    pub type_name: &'static str,
    /// Percent of instances with a (non-missing) nominal value, rounded.
    pub nominal_pct: u32,
    /// Percent of instances with an integral numeric value, rounded.
    pub int_pct: u32,
    /// Percent of instances with a non-integral numeric value, rounded.
    pub real_pct: u32,
    /// Count of missing values.
    pub missing: usize,
    /// Percent of missing values, rounded.
    pub missing_pct: u32,
    /// Number of distinct (non-missing) values.
    pub distinct: usize,
    /// Number of values that occur exactly once.
    pub unique: usize,
    /// Percent of values that occur exactly once, rounded.
    pub unique_pct: u32,
}

/// Whole-dataset summary (the header block of Figure 3).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// `Num Instances` — number of rows.
    pub num_instances: usize,
    /// `Num Attributes` — number of columns.
    pub num_attributes: usize,
    /// Number of numeric attributes whose observed values are all integral.
    pub num_int: usize,
    /// Number of numeric attributes with at least one fractional value.
    pub num_real: usize,
    /// `Num Continuous` — numeric attributes (int + real).
    pub num_continuous: usize,
    /// `Num Discrete` — nominal attributes.
    pub num_discrete: usize,
    /// Total missing values across all cells.
    pub missing_values: usize,
    /// Missing values as a percentage of all cells (one decimal place,
    /// e.g. `0.3` for the breast-cancer data).
    pub missing_pct: f64,
    /// Per-attribute rows.
    pub attributes: Vec<AttributeSummary>,
}

fn pct(part: f64, whole: f64) -> u32 {
    if whole == 0.0 {
        0
    } else {
        (100.0 * part / whole).round() as u32
    }
}

/// The number of distinct values among `values`, and of values that
/// occur once. Sorting groups equal values (`-0.0` with `0.0`) into
/// runs, whatever order a run's members take.
fn distinct_and_unique(values: &mut [f64]) -> (usize, usize) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN present"));
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
    (distinct, unique)
}

impl DatasetSummary {
    /// Compute the summary of a dataset.
    pub fn of(ds: &Dataset) -> DatasetSummary {
        let n = ds.num_instances();
        let mut rows = Vec::with_capacity(ds.num_attributes());
        let mut num_int = 0;
        let mut num_real = 0;
        let mut num_discrete = 0;
        let mut total_missing = 0;

        for a in 0..ds.num_attributes() {
            let attr = ds.attribute(a).expect("index in range");
            // Missing counts come straight off the validity bitmap
            // (popcount per word); the value scans only visit cells
            // the bitmap marks present, so no NaN probing is needed.
            let col = ds.column(a);
            let valid = col.validity();
            let missing = valid.count_missing();
            total_missing += missing;
            let present = n - missing;
            let (ints, reals, distinct, unique) = match col.nominal() {
                // Codes are integral and below the arity: count them.
                Some((codes, valid)) => {
                    let mut counts = vec![0u32; attr.num_labels()];
                    for r in 0..n {
                        if valid.get(r) {
                            counts[codes.get(r)] += 1;
                        }
                    }
                    let distinct = counts.iter().filter(|&&c| c > 0).count();
                    let unique = counts.iter().filter(|&&c| c == 1).count();
                    (present, 0, distinct, unique)
                }
                None => {
                    let mut values: Vec<f64> = match col.numeric() {
                        Some((cells, _)) if missing == 0 => cells.to_vec(),
                        _ => (0..n)
                            .filter(|&r| valid.get(r))
                            .map(|r| col.get(r))
                            .collect(),
                    };
                    let ints = values.iter().filter(|&&v| v == v.trunc()).count();
                    let (distinct, unique) = distinct_and_unique(&mut values);
                    (ints, values.len() - ints, distinct, unique)
                }
            };

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

    /// Render the summary as the Figure-3-style table.
    ///
    /// The header block then one row per attribute:
    /// `idx name type nom% int% real% missing /pct% distinct unique /pct%`.
    pub fn to_table_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Num Instances {}  Num Attributes {}  Num Continuous {} (Int {} / Real {})  Num Discrete {}  Missing values {} / {:.1}%\n",
            self.num_instances,
            self.num_attributes,
            self.num_continuous,
            self.num_int,
            self.num_real,
            self.num_discrete,
            self.missing_values,
            self.missing_pct
        ));
        out.push_str(&format!(
            "{:>3} {:<16} {:<5} {:>4} {:>4} {:>4} {:>8} {:>5} {:>8} {:>6}\n",
            "#", "name", "type", "enum", "ints", "real", "missing", "/pct", "distinct", "unique"
        ));
        for (i, a) in self.attributes.iter().enumerate() {
            out.push_str(&format!(
                "{:>3} {:<16} {:<5} {:>4} {:>4} {:>4} {:>8} {:>4}% {:>8} {:>3}/{:>1}%\n",
                i + 1,
                a.name,
                a.type_name,
                a.nominal_pct,
                a.int_pct,
                a.real_pct,
                a.missing,
                a.missing_pct,
                a.distinct,
                a.unique,
                a.unique_pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn mixed() -> Dataset {
        let mut ds = Dataset::new(
            "mixed",
            vec![
                Attribute::nominal("colour", ["red", "green", "blue"]),
                Attribute::numeric("count"),
                Attribute::numeric("ratio"),
            ],
        );
        ds.push_labels(&["red", "1", "0.5"]).unwrap();
        ds.push_labels(&["green", "2", "1.5"]).unwrap();
        ds.push_labels(&["red", "3", "?"]).unwrap();
        ds.push_labels(&["?", "4", "0.5"]).unwrap();
        ds
    }

    #[test]
    fn header_block_counts() {
        let s = DatasetSummary::of(&mixed());
        assert_eq!(s.num_instances, 4);
        assert_eq!(s.num_attributes, 3);
        assert_eq!(s.num_discrete, 1);
        assert_eq!(s.num_int, 1);
        assert_eq!(s.num_real, 1);
        assert_eq!(s.num_continuous, 2);
        assert_eq!(s.missing_values, 2);
    }

    #[test]
    fn nominal_row() {
        let s = DatasetSummary::of(&mixed());
        let a = &s.attributes[0];
        assert_eq!(a.type_name, "Enum");
        assert_eq!(a.nominal_pct, 75); // 3 of 4 present
        assert_eq!(a.missing, 1);
        assert_eq!(a.missing_pct, 25);
        assert_eq!(a.distinct, 2); // red, green observed
        assert_eq!(a.unique, 1); // green appears once
    }

    #[test]
    fn integer_column_detected() {
        let s = DatasetSummary::of(&mixed());
        let a = &s.attributes[1];
        assert_eq!(a.type_name, "Int");
        assert_eq!(a.int_pct, 100);
        assert_eq!(a.distinct, 4);
        assert_eq!(a.unique, 4);
    }

    #[test]
    fn real_column_detected() {
        let s = DatasetSummary::of(&mixed());
        let a = &s.attributes[2];
        assert_eq!(a.type_name, "Real");
        assert_eq!(a.missing, 1);
        assert_eq!(a.distinct, 2); // 0.5 (twice), 1.5
        assert_eq!(a.unique, 1);
    }

    #[test]
    fn table_renders_every_attribute() {
        let s = DatasetSummary::of(&mixed());
        let t = s.to_table_string();
        assert!(t.contains("Num Instances 4"));
        assert!(t.contains("colour"));
        assert!(t.contains("ratio"));
        assert_eq!(t.lines().count(), 2 + 3);
    }

    #[test]
    fn bitmap_missing_counts_match_nan_scan() {
        // Regression for the validity-bitmap accounting: the summary's
        // per-attribute and total missing counts must agree with a
        // cell-by-cell NaN scan through the compatibility API.
        use crate::dataset::Value;
        let ds = mixed();
        let s = DatasetSummary::of(&ds);
        let mut total = 0usize;
        for a in 0..ds.num_attributes() {
            let by_scan = (0..ds.num_instances())
                .filter(|&r| Value::is_missing(ds.value(r, a)))
                .count();
            assert_eq!(s.attributes[a].missing, by_scan, "attr {a}");
            assert_eq!(ds.missing_count(a), by_scan, "attr {a}");
            total += by_scan;
        }
        assert_eq!(s.missing_values, total);
    }

    #[test]
    fn summary_tracks_missingness_edits() {
        // Flipping a cell missing (and back) through set_value must be
        // reflected in the bitmap-backed summary counts.
        let mut ds = mixed();
        ds.set_value(0, 1, f64::NAN);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.attributes[1].missing, 1);
        assert_eq!(s.missing_values, 3);
        ds.set_value(0, 1, 7.0);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.attributes[1].missing, 0);
        assert_eq!(s.missing_values, 2);
    }

    #[test]
    fn empty_dataset_summary() {
        let ds = Dataset::new("e", vec![Attribute::numeric("x")]);
        let s = DatasetSummary::of(&ds);
        assert_eq!(s.num_instances, 0);
        assert_eq!(s.missing_pct, 0.0);
        assert_eq!(s.attributes[0].distinct, 0);
    }
}
