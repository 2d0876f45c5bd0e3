//! Single-attribute evaluators: each scores every non-class attribute;
//! higher is better. Numeric attributes are discretised into ten
//! equal-width bins for the contingency-table-based measures.

use crate::classifiers::entropy;
use crate::error::{AlgoError, Result};
use dm_data::{ColumnView, Dataset, Value};

#[cfg(test)]
mod reference;

/// Scores all attributes of a dataset (class attribute gets 0).
pub trait AttributeEvaluator: Send {
    /// Evaluator name.
    fn name(&self) -> &'static str;
    /// Per-attribute scores, one per attribute (class attribute 0).
    fn evaluate_all(&self, data: &Dataset) -> Result<Vec<f64>>;
}

const NUM_BINS: usize = 10;

/// The score a table evaluator gives one attribute's contingency table.
type Score = fn(&[Vec<f64>]) -> f64;

fn arity(data: &Dataset, attr: usize) -> usize {
    if data.attributes()[attr].is_nominal() {
        data.attributes()[attr].num_labels()
    } else {
        NUM_BINS
    }
}

/// Build the `attr × class` contingency table (weighted), skipping
/// missing values on either side. The class codes and the attribute's
/// codes (or values, binned into [`NUM_BINS`] equal-width bins) are
/// read straight off their columns, and each cell's weights are added
/// in row order.
fn contingency(data: &Dataset, attr: usize, ci: usize, k: usize) -> Vec<Vec<f64>> {
    let mut table = vec![vec![0.0; k]; arity(data, attr)];
    let (classes, class_valid) = data
        .column(ci)
        .nominal()
        .expect("class_setup checked the class is nominal");
    let weights = data.weights();
    match data.column(attr) {
        ColumnView::Nominal { codes, valid } => {
            for (r, &w) in weights.iter().enumerate() {
                if class_valid.get(r) && valid.get(r) {
                    table[codes.get(r)][classes.get(r)] += w;
                }
            }
        }
        ColumnView::Numeric { values, valid } => {
            let Some((min, max)) = data.column(attr).numeric_range() else {
                return table;
            };
            for (r, (&v, &w)) in values.iter().zip(weights).enumerate() {
                if class_valid.get(r) && valid.get(r) {
                    let bin = if max <= min {
                        0
                    } else {
                        (((v - min) / (max - min) * NUM_BINS as f64) as usize).min(NUM_BINS - 1)
                    };
                    table[bin][classes.get(r)] += w;
                }
            }
        }
        // Neither nominal nor binned: no cell counts.
        ColumnView::Str { .. } => {}
    }
    table
}

fn class_setup(data: &Dataset) -> Result<(usize, usize)> {
    let ci = data
        .class_index()
        .ok_or(AlgoError::Data(dm_data::DataError::NoClass))?;
    let k = data.num_classes()?;
    Ok((ci, k))
}

/// `gain = H(C) − H(C|A)` from a contingency table.
fn info_gain_of(table: &[Vec<f64>]) -> f64 {
    let k = table.first().map_or(0, Vec::len);
    let mut class_totals = vec![0.0; k];
    let mut total = 0.0;
    for row in table {
        for (c, &x) in row.iter().enumerate() {
            class_totals[c] += x;
            total += x;
        }
    }
    if total <= 0.0 {
        return 0.0;
    }
    let h_class = entropy(&class_totals);
    let mut h_cond = 0.0;
    for row in table {
        let w: f64 = row.iter().sum();
        if w > 0.0 {
            h_cond += w / total * entropy(row);
        }
    }
    h_class - h_cond
}

fn attr_entropy(table: &[Vec<f64>]) -> f64 {
    let weights: Vec<f64> = table.iter().map(|row| row.iter().sum()).collect();
    entropy(&weights)
}

macro_rules! table_evaluator {
    ($(#[$doc:meta])* $name:ident, $strname:literal, $score:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl $name {
            /// Create the evaluator.
            pub fn new() -> $name {
                $name
            }

            /// The score of one attribute's contingency table.
            const SCORE: Score = $score;
        }

        impl AttributeEvaluator for $name {
            fn name(&self) -> &'static str {
                $strname
            }

            fn evaluate_all(&self, data: &Dataset) -> Result<Vec<f64>> {
                let (ci, k) = class_setup(data)?;
                let score = Self::SCORE;
                Ok((0..data.num_attributes())
                    .map(|a| {
                        if a == ci || data.attributes()[a].is_string() {
                            0.0
                        } else {
                            score(&contingency(data, a, ci, k))
                        }
                    })
                    .collect())
            }
        }
    };
}

table_evaluator!(
    /// Information gain `H(C) − H(C|A)`.
    InfoGainEval,
    "InfoGain",
    info_gain_of
);

table_evaluator!(
    /// Gain ratio `gain / H(A)`.
    GainRatioEval,
    "GainRatio",
    |table| {
        let si = attr_entropy(table);
        if si <= 1e-12 {
            0.0
        } else {
            info_gain_of(table) / si
        }
    }
);

table_evaluator!(
    /// Pearson chi-squared statistic of the `A × C` table.
    ChiSquared,
    "ChiSquared",
    |table| {
        let k = table.first().map_or(0, Vec::len);
        let mut col = vec![0.0; k];
        let mut total = 0.0;
        for row in table {
            for (c, &x) in row.iter().enumerate() {
                col[c] += x;
                total += x;
            }
        }
        if total <= 0.0 {
            return 0.0;
        }
        let mut chi2 = 0.0;
        for row in table {
            let rw: f64 = row.iter().sum();
            for (c, &x) in row.iter().enumerate() {
                let expected = rw * col[c] / total;
                if expected > 0.0 {
                    chi2 += (x - expected) * (x - expected) / expected;
                }
            }
        }
        chi2
    }
);

table_evaluator!(
    /// Symmetrical uncertainty `2·gain / (H(A) + H(C))`.
    SymmetricalUncertainty,
    "SymmetricalUncertainty",
    |table| {
        let k = table.first().map_or(0, Vec::len);
        let mut col = vec![0.0; k];
        for row in table {
            for (c, &x) in row.iter().enumerate() {
                col[c] += x;
            }
        }
        let denom = attr_entropy(table) + entropy(&col);
        if denom <= 1e-12 {
            0.0
        } else {
            2.0 * info_gain_of(table) / denom
        }
    }
);

table_evaluator!(
    /// Cramér's V association strength, `sqrt(χ² / (n·(min(r,c)−1)))`.
    CramersV,
    "CramersV",
    |table| {
        let k = table.first().map_or(0, Vec::len);
        let rows = table.iter().filter(|r| r.iter().sum::<f64>() > 0.0).count();
        let total: f64 = table.iter().map(|r| r.iter().sum::<f64>()).sum();
        if total <= 0.0 || rows < 2 || k < 2 {
            return 0.0;
        }
        // chi2 inline (same as ChiSquared).
        let mut col = vec![0.0; k];
        for row in table {
            for (c, &x) in row.iter().enumerate() {
                col[c] += x;
            }
        }
        let mut chi2 = 0.0;
        for row in table {
            let rw: f64 = row.iter().sum();
            for (c, &x) in row.iter().enumerate() {
                let expected = rw * col[c] / total;
                if expected > 0.0 {
                    chi2 += (x - expected) * (x - expected) / expected;
                }
            }
        }
        let m = (rows.min(k) - 1) as f64;
        (chi2 / (total * m)).sqrt()
    }
);

table_evaluator!(
    /// Accuracy of the best single-attribute (OneR-style) rule.
    OneRAttrEval,
    "OneR",
    |table| {
        let mut correct = 0.0;
        let mut total = 0.0;
        for row in table {
            correct += row.iter().cloned().fold(0.0, f64::max);
            total += row.iter().sum::<f64>();
        }
        if total <= 0.0 {
            0.0
        } else {
            correct / total
        }
    }
);

/// Normalised variance ranking (unsupervised; the "PCA-style" ranker).
/// Nominal attributes score by Gini diversity of their distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct VarianceRank;

impl VarianceRank {
    /// Create the evaluator.
    pub fn new() -> VarianceRank {
        VarianceRank
    }
}

impl AttributeEvaluator for VarianceRank {
    fn name(&self) -> &'static str {
        "Variance"
    }

    fn evaluate_all(&self, data: &Dataset) -> Result<Vec<f64>> {
        let ci = data.class_index();
        Ok((0..data.num_attributes())
            .map(|a| {
                if Some(a) == ci || data.attributes()[a].is_string() {
                    return 0.0;
                }
                if data.attributes()[a].is_nominal() {
                    let mut counts = vec![0.0; data.attributes()[a].num_labels()];
                    let mut total = 0.0;
                    for r in 0..data.num_instances() {
                        let v = data.value(r, a);
                        if !Value::is_missing(v) {
                            counts[Value::as_index(v)] += 1.0;
                            total += 1.0;
                        }
                    }
                    if total <= 0.0 {
                        0.0
                    } else {
                        1.0 - counts
                            .iter()
                            .map(|&c| (c / total) * (c / total))
                            .sum::<f64>()
                    }
                } else {
                    // Range-normalised variance.
                    let Some((min, max)) = data.column(a).numeric_range() else {
                        return 0.0;
                    };
                    if max <= min {
                        return 0.0;
                    }
                    let vals: Vec<f64> = (0..data.num_instances())
                        .filter_map(|r| {
                            let v = data.value(r, a);
                            (!Value::is_missing(v)).then(|| (v - min) / (max - min))
                        })
                        .collect();
                    let n = vals.len() as f64;
                    if n == 0.0 {
                        return 0.0;
                    }
                    let mean = vals.iter().sum::<f64>() / n;
                    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
                }
            })
            .collect())
    }
}

/// ReliefF (Kononenko 1994): weight attributes by how well they
/// separate each instance from its nearest misses versus nearest hits.
#[derive(Debug, Clone, Copy)]
pub struct ReliefF {
    /// Neighbours per class.
    pub k: usize,
}

impl Default for ReliefF {
    fn default() -> Self {
        ReliefF { k: 10 }
    }
}

impl ReliefF {
    /// Create with `k = 10` neighbours.
    pub fn new() -> ReliefF {
        ReliefF::default()
    }
}

impl AttributeEvaluator for ReliefF {
    fn name(&self) -> &'static str {
        "ReliefF"
    }

    fn evaluate_all(&self, data: &Dataset) -> Result<Vec<f64>> {
        let (ci, _k_classes) = class_setup(data)?;
        let n = data.num_instances();
        if n < 2 {
            return Err(AlgoError::Data(dm_data::DataError::Empty));
        }
        let n_attrs = data.num_attributes();
        let ranges: Vec<Option<(f64, f64)>> = (0..n_attrs)
            .map(|a| data.column(a).numeric_range())
            .collect();

        // Per-attribute difference in [0, 1].
        let diff = |a: usize, r1: usize, r2: usize| -> f64 {
            if a == ci {
                return 0.0;
            }
            let (x, y) = (data.value(r1, a), data.value(r2, a));
            if Value::is_missing(x) || Value::is_missing(y) {
                return 1.0;
            }
            if data.attributes()[a].is_nominal() {
                f64::from(u8::from(Value::as_index(x) != Value::as_index(y)))
            } else {
                match ranges[a] {
                    Some((min, max)) if max > min => ((x - y) / (max - min)).abs(),
                    _ => 0.0,
                }
            }
        };
        let distance =
            |r1: usize, r2: usize| -> f64 { (0..n_attrs).map(|a| diff(a, r1, r2)).sum() };

        let mut weights = vec![0.0f64; n_attrs];
        for r in 0..n {
            let cv = data.value(r, ci);
            if Value::is_missing(cv) {
                continue;
            }
            let my_class = Value::as_index(cv);
            // Nearest hits and misses.
            let mut hits: Vec<(f64, usize)> = Vec::new();
            let mut misses: Vec<(f64, usize)> = Vec::new();
            for other in 0..n {
                if other == r {
                    continue;
                }
                let ov = data.value(other, ci);
                if Value::is_missing(ov) {
                    continue;
                }
                let d = distance(r, other);
                if Value::as_index(ov) == my_class {
                    hits.push((d, other));
                } else {
                    misses.push((d, other));
                }
            }
            let by_distance =
                |a: &(f64, usize), b: &(f64, usize)| a.0.partial_cmp(&b.0).expect("no NaN");
            hits.sort_by(by_distance);
            misses.sort_by(by_distance);
            let kh = self.k.min(hits.len());
            let km = self.k.min(misses.len());
            for (a, w) in weights.iter_mut().enumerate() {
                if a == ci {
                    continue;
                }
                for &(_, h) in &hits[..kh] {
                    *w -= diff(a, r, h) / (kh.max(1) * n) as f64;
                }
                for &(_, m) in &misses[..km] {
                    *w += diff(a, r, m) / (km.max(1) * n) as f64;
                }
            }
        }
        Ok(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifiers::test_support::weather_nominal;

    fn scores(e: &dyn AttributeEvaluator) -> Vec<f64> {
        e.evaluate_all(&weather_nominal()).unwrap()
    }

    #[test]
    fn info_gain_known_weather_values() {
        // Quinlan's classic numbers: outlook 0.247, humidity 0.152,
        // windy 0.048, temperature 0.029.
        let s = scores(&InfoGainEval::new());
        assert!((s[0] - 0.2467).abs() < 1e-3, "outlook {}", s[0]);
        assert!((s[2] - 0.1518).abs() < 1e-3, "humidity {}", s[2]);
        assert!((s[3] - 0.0481).abs() < 1e-3, "windy {}", s[3]);
        assert!((s[1] - 0.0292).abs() < 1e-3, "temperature {}", s[1]);
        assert_eq!(s[4], 0.0); // class itself
    }

    #[test]
    fn gain_ratio_orders_outlook_first() {
        let s = scores(&GainRatioEval::new());
        assert!(s[0] > s[1] && s[0] > s[3]);
    }

    #[test]
    fn chi_squared_positive_for_informative() {
        let s = scores(&ChiSquared::new());
        assert!(s[0] > s[1]);
        assert!(s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn symmetrical_uncertainty_bounded() {
        let s = scores(&SymmetricalUncertainty::new());
        assert!(s.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(s[0] > 0.1);
    }

    #[test]
    fn one_r_eval_matches_rule_accuracy() {
        let s = scores(&OneRAttrEval::new());
        // outlook's best rule gets 10/14.
        assert!((s[0] - 10.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn cramers_v_bounded() {
        let s = scores(&CramersV::new());
        assert!(s.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        assert!(s[0] > s[1]);
    }

    #[test]
    fn relief_favours_node_caps_family() {
        let ds = dm_data::corpus::breast_cancer();
        let s = ReliefF::new().evaluate_all(&ds).unwrap();
        let nc = ds.attribute_index("node-caps").unwrap();
        let breast = ds.attribute_index("breast").unwrap();
        assert!(
            s[nc] > s[breast],
            "node-caps {} should outrank breast {}",
            s[nc],
            s[breast]
        );
    }

    #[test]
    fn variance_rank_unsupervised() {
        let s = scores(&VarianceRank::new());
        assert!(s.iter().take(4).all(|&x| x > 0.0));
        assert_eq!(s[4], 0.0);
    }

    #[test]
    fn numeric_attributes_binned() {
        let ds = crate::classifiers::test_support::weather_numeric();
        let s = InfoGainEval::new().evaluate_all(&ds).unwrap();
        assert!(s.iter().all(|&x| x.is_finite()));
        assert!(s[0] > 0.0);
    }

    #[test]
    fn breast_cancer_info_gain_ranking() {
        // The gains computed for the corpus design: deg-malig and
        // inv-nodes carry the largest raw gains.
        let ds = dm_data::corpus::breast_cancer();
        let s = InfoGainEval::new().evaluate_all(&ds).unwrap();
        let dm = ds.attribute_index("deg-malig").unwrap();
        let breast = ds.attribute_index("breast").unwrap();
        assert!(s[dm] > 0.05);
        assert!(s[breast] < 0.02);
    }

    #[test]
    fn requires_class() {
        let mut ds = weather_nominal();
        ds.set_class_index(None).unwrap();
        assert!(InfoGainEval::new().evaluate_all(&ds).is_err());
    }
}
