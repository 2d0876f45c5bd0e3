//! Dataset filters: the preprocessing half of the WEKA substrate.
//!
//! Each filter follows the WEKA convention of learning its parameters
//! from one dataset (`fit`) and then applying them to any compatible
//! dataset (`apply`), so that a filter fitted on training data can be
//! replayed on test data without leaking statistics.

use crate::attribute::{Attribute, AttributeKind};
use crate::column::{Codes, Column};
use crate::dataset::{Dataset, Value};
use crate::error::{DataError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[cfg(test)]
mod reference;

/// A fitted, replayable dataset transformation.
pub trait Filter {
    /// Apply the fitted transformation to a dataset with a compatible
    /// header, producing a new dataset.
    fn apply(&self, ds: &Dataset) -> Result<Dataset>;
}

/// The column-wise rebuild both discretisers share: a copy of `ds` in
/// which each attribute `a` that `binned(a)` gives labels and a binning
/// for becomes a nominal attribute over those labels. A present cell's
/// code is the binning of its value, read straight off the numeric
/// buffer; a missing cell stays missing. Every other column, the
/// weights, the class index and the string table carry over.
fn rebuild_binned<B: Fn(f64) -> usize>(
    ds: &Dataset,
    binned: impl Fn(usize) -> Option<(Vec<String>, B)>,
) -> Dataset {
    ds.with_replaced_columns(|a| {
        let (labels, bin) = binned(a)?;
        let col = ds.column(a);
        let valid = col.validity();
        let code = |r: usize, v: f64| if valid.get(r) { bin(v) } else { 0 };
        let arity = labels.len();
        let codes = match col.numeric() {
            Some((values, _)) => {
                Codes::from_codes(arity, values.iter().enumerate().map(|(r, &v)| code(r, v)))
            }
            // A header that disagrees with the fitted one: bin the
            // encoded cells, as the filter always has.
            None => Codes::from_codes(arity, (0..valid.len()).map(|r| code(r, col.get(r)))),
        };
        let attr = Attribute::nominal(ds.attributes()[a].name(), labels);
        let valid = valid.clone();
        Some((
            attr,
            Column::Nominal {
                codes,
                arity,
                valid,
            },
        ))
    })
}

// ---------------------------------------------------------------------
// Normalize: min-max scale numeric attributes to [0, 1].
// ---------------------------------------------------------------------

/// Min–max normalisation of every numeric attribute to `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Normalize {
    ranges: Vec<Option<(f64, f64)>>,
}

impl Normalize {
    /// Learn per-attribute min/max from `ds`.
    pub fn fit(ds: &Dataset) -> Normalize {
        let mut ranges = Vec::with_capacity(ds.num_attributes());
        for a in 0..ds.num_attributes() {
            if !ds.attributes()[a].is_numeric() {
                ranges.push(None);
                continue;
            }
            ranges.push(ds.column(a).numeric_range());
        }
        Normalize { ranges }
    }
}

impl Filter for Normalize {
    fn apply(&self, ds: &Dataset) -> Result<Dataset> {
        if ds.num_attributes() != self.ranges.len() {
            return Err(DataError::Arity {
                got: ds.num_attributes(),
                expected: self.ranges.len(),
            });
        }
        let mut out = ds.clone();
        for (a, range) in self.ranges.iter().enumerate() {
            if let Some((min, max)) = range {
                let span = max - min;
                for r in 0..out.num_instances() {
                    let v = out.value(r, a);
                    if !Value::is_missing(v) {
                        let scaled = if span == 0.0 { 0.0 } else { (v - min) / span };
                        out.set_value(r, a, scaled);
                    }
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Standardize: zero mean, unit variance.
// ---------------------------------------------------------------------

/// Z-score standardisation of every numeric attribute.
#[derive(Debug, Clone)]
pub struct Standardize {
    moments: Vec<Option<(f64, f64)>>,
}

impl Standardize {
    /// Learn per-attribute mean and standard deviation from `ds`.
    pub fn fit(ds: &Dataset) -> Standardize {
        let mut moments = Vec::with_capacity(ds.num_attributes());
        for a in 0..ds.num_attributes() {
            let Some((values, valid)) = ds.column(a).numeric() else {
                moments.push(None);
                continue;
            };
            // Two columnar passes over present cells only; row order is
            // preserved so the accumulation matches the row-wise code
            // bit for bit.
            let mut sum = 0.0;
            let mut count = 0.0;
            for (r, &v) in values.iter().enumerate() {
                if valid.get(r) {
                    sum += v;
                    count += 1.0;
                }
            }
            if count == 0.0 {
                moments.push(None);
                continue;
            }
            let mean = sum / count;
            let mut ss = 0.0;
            for (r, &v) in values.iter().enumerate() {
                if valid.get(r) {
                    ss += (v - mean) * (v - mean);
                }
            }
            let sd = (ss / count).sqrt();
            moments.push(Some((mean, sd)));
        }
        Standardize { moments }
    }
}

impl Filter for Standardize {
    fn apply(&self, ds: &Dataset) -> Result<Dataset> {
        if ds.num_attributes() != self.moments.len() {
            return Err(DataError::Arity {
                got: ds.num_attributes(),
                expected: self.moments.len(),
            });
        }
        let mut out = ds.clone();
        for (a, m) in self.moments.iter().enumerate() {
            if let Some((mean, sd)) = m {
                for r in 0..out.num_instances() {
                    let v = out.value(r, a);
                    if !Value::is_missing(v) {
                        let z = if *sd == 0.0 { 0.0 } else { (v - mean) / sd };
                        out.set_value(r, a, z);
                    }
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// ReplaceMissing: mode (nominal) / mean (numeric) imputation.
// ---------------------------------------------------------------------

/// Replace missing values with the training mode (nominal) or mean
/// (numeric) — WEKA's `ReplaceMissingValues`.
#[derive(Debug, Clone)]
pub struct ReplaceMissing {
    fill: Vec<Option<f64>>,
}

impl ReplaceMissing {
    /// Learn fill values from `ds`.
    pub fn fit(ds: &Dataset) -> ReplaceMissing {
        let mut fill = Vec::with_capacity(ds.num_attributes());
        for a in 0..ds.num_attributes() {
            let attr = &ds.attributes()[a];
            let value = match attr.kind() {
                AttributeKind::Nominal(labels) => {
                    let mut counts = vec![0.0f64; labels.len()];
                    for r in 0..ds.num_instances() {
                        let v = ds.value(r, a);
                        if !Value::is_missing(v) {
                            counts[Value::as_index(v)] += ds.weight(r);
                        }
                    }
                    counts
                        .iter()
                        .enumerate()
                        .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
                        .filter(|(_, &c)| c > 0.0)
                        .map(|(i, _)| Value::from_index(i))
                }
                AttributeKind::Numeric => {
                    let mut sum = 0.0;
                    let mut count = 0.0;
                    for r in 0..ds.num_instances() {
                        let v = ds.value(r, a);
                        if !Value::is_missing(v) {
                            sum += v * ds.weight(r);
                            count += ds.weight(r);
                        }
                    }
                    (count > 0.0).then(|| sum / count)
                }
                AttributeKind::Str => None,
            };
            fill.push(value);
        }
        ReplaceMissing { fill }
    }
}

impl Filter for ReplaceMissing {
    fn apply(&self, ds: &Dataset) -> Result<Dataset> {
        if ds.num_attributes() != self.fill.len() {
            return Err(DataError::Arity {
                got: ds.num_attributes(),
                expected: self.fill.len(),
            });
        }
        let mut out = ds.clone();
        for (a, f) in self.fill.iter().enumerate() {
            if let Some(fill) = f {
                for r in 0..out.num_instances() {
                    if Value::is_missing(out.value(r, a)) {
                        out.set_value(r, a, *fill);
                    }
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Discretize: equal-width binning of numeric attributes.
// ---------------------------------------------------------------------

/// Equal-width discretisation of numeric attributes into `bins` nominal
/// intervals (class attribute, if numeric, is left untouched).
#[derive(Debug, Clone)]
pub struct Discretize {
    bins: usize,
    cuts: Vec<Option<(f64, f64)>>,
}

impl Discretize {
    /// Learn per-attribute value ranges from `ds`.
    pub fn fit(ds: &Dataset, bins: usize) -> Result<Discretize> {
        if bins < 2 {
            return Err(DataError::InvalidParameter(format!(
                "bins = {bins}; need >= 2"
            )));
        }
        let class = ds.class_index();
        let mut cuts = Vec::with_capacity(ds.num_attributes());
        for a in 0..ds.num_attributes() {
            if !ds.attributes()[a].is_numeric() || class == Some(a) {
                cuts.push(None);
                continue;
            }
            cuts.push(ds.column(a).numeric_range());
        }
        Ok(Discretize { bins, cuts })
    }

    /// The equal-width bin of `v` in `[min, max]`, clamped to the last
    /// bin.
    fn bin_of(bins: usize, (min, max): (f64, f64), v: f64) -> usize {
        if max == min {
            return 0;
        }
        let b = ((v - min) / (max - min) * bins as f64).floor() as usize;
        b.min(bins - 1)
    }
}

impl Filter for Discretize {
    fn apply(&self, ds: &Dataset) -> Result<Dataset> {
        if ds.num_attributes() != self.cuts.len() {
            return Err(DataError::Arity {
                got: ds.num_attributes(),
                expected: self.cuts.len(),
            });
        }
        Ok(rebuild_binned(ds, |a| {
            let range = self.cuts[a]?;
            let labels = (0..self.bins).map(|b| format!("bin{}", b + 1)).collect();
            Some((labels, move |v| Self::bin_of(self.bins, range, v)))
        }))
    }
}

// ---------------------------------------------------------------------
// Supervised (Fayyad–Irani MDL) discretisation.
// ---------------------------------------------------------------------

/// Entropy-based supervised discretisation (Fayyad & Irani 1993),
/// WEKA's default supervised filter: each numeric attribute is split
/// recursively at the class-entropy-minimising cut point, accepting a
/// cut only when the MDL criterion says the information gain pays for
/// the extra model bits. Attributes where no cut is accepted collapse
/// to a single `'All'` bin.
#[derive(Debug, Clone)]
pub struct SupervisedDiscretize {
    /// Per-attribute sorted cut points (`None` = not discretised).
    cuts: Vec<Option<Vec<f64>>>,
}

impl SupervisedDiscretize {
    /// Learn cut points from `ds` (class attribute must be nominal).
    pub fn fit(ds: &Dataset) -> Result<SupervisedDiscretize> {
        let ci = ds.class_index().ok_or(DataError::NoClass)?;
        let k = ds.num_classes()?;
        let mut cuts = Vec::with_capacity(ds.num_attributes());
        for a in 0..ds.num_attributes() {
            if !ds.attributes()[a].is_numeric() || a == ci {
                cuts.push(None);
                continue;
            }
            let mut pairs: Vec<(f64, usize)> = (0..ds.num_instances())
                .filter_map(|r| {
                    let v = ds.value(r, a);
                    let c = ds.value(r, ci);
                    (!Value::is_missing(v) && !Value::is_missing(c))
                        .then(|| (v, Value::as_index(c)))
                })
                .collect();
            pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
            let mut attr_cuts = Vec::new();
            Self::split(&pairs, k, &mut attr_cuts);
            attr_cuts.sort_by(|x, y| x.partial_cmp(y).expect("finite cuts"));
            cuts.push(Some(attr_cuts));
        }
        Ok(SupervisedDiscretize { cuts })
    }

    /// The learned cut points of attribute `a` (empty if none accepted).
    pub fn cut_points(&self, a: usize) -> &[f64] {
        self.cuts.get(a).and_then(|c| c.as_deref()).unwrap_or(&[])
    }

    /// The labels of the bins `cuts` bound: `'All'` when there is no
    /// cut.
    fn interval_labels(cuts: &[f64]) -> Vec<String> {
        if cuts.is_empty() {
            return vec!["'All'".to_string()];
        }
        (0..=cuts.len())
            .map(|b| {
                if b == 0 {
                    format!("(-inf..{}]", cuts[0])
                } else if b == cuts.len() {
                    format!("({}..inf)", cuts[b - 1])
                } else {
                    format!("({}..{}]", cuts[b - 1], cuts[b])
                }
            })
            .collect()
    }

    fn class_counts(pairs: &[(f64, usize)], k: usize) -> Vec<f64> {
        let mut counts = vec![0.0; k];
        for &(_, c) in pairs {
            counts[c] += 1.0;
        }
        counts
    }

    fn entropy(counts: &[f64]) -> f64 {
        let total: f64 = counts.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        counts
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| {
                let p = c / total;
                -p * p.log2()
            })
            .sum()
    }

    /// Recursive MDL splitting over a sorted slice.
    fn split(pairs: &[(f64, usize)], k: usize, out: &mut Vec<f64>) {
        let n = pairs.len();
        if n < 4 {
            return;
        }
        let total_counts = Self::class_counts(pairs, k);
        let total_entropy = Self::entropy(&total_counts);

        // Best boundary cut (class-boundary points only, as F&I prove
        // suffices).
        let mut left = vec![0.0f64; k];
        let mut right = total_counts.clone();
        let mut best: Option<(f64, usize, f64)> = None; // (weighted entropy, idx, cut)
        for i in 0..n - 1 {
            let (v, c) = pairs[i];
            left[c] += 1.0;
            right[c] -= 1.0;
            if pairs[i + 1].0 == v {
                continue;
            }
            let weighted = ((i + 1) as f64 * Self::entropy(&left)
                + (n - i - 1) as f64 * Self::entropy(&right))
                / n as f64;
            if best.is_none_or(|(w, ..)| weighted < w) {
                best = Some((weighted, i, (v + pairs[i + 1].0) / 2.0));
            }
        }
        let Some((weighted, idx, cut)) = best else {
            return;
        };

        // MDL acceptance criterion.
        let gain = total_entropy - weighted;
        let (l, r) = pairs.split_at(idx + 1);
        let k_total = total_counts.iter().filter(|&&c| c > 0.0).count() as f64;
        let lc = Self::class_counts(l, k);
        let rc = Self::class_counts(r, k);
        let k_left = lc.iter().filter(|&&c| c > 0.0).count() as f64;
        let k_right = rc.iter().filter(|&&c| c > 0.0).count() as f64;
        let delta = (3f64.powf(k_total) - 2.0).log2()
            - (k_total * total_entropy
                - k_left * Self::entropy(&lc)
                - k_right * Self::entropy(&rc));
        let threshold = ((n as f64 - 1.0).log2() + delta) / n as f64;
        if gain <= threshold {
            return;
        }
        out.push(cut);
        Self::split(l, k, out);
        Self::split(r, k, out);
    }
}

impl Filter for SupervisedDiscretize {
    fn apply(&self, ds: &Dataset) -> Result<Dataset> {
        if ds.num_attributes() != self.cuts.len() {
            return Err(DataError::Arity {
                got: ds.num_attributes(),
                expected: self.cuts.len(),
            });
        }
        Ok(rebuild_binned(ds, |a| {
            let cuts = self.cuts[a].as_deref()?;
            Some((Self::interval_labels(cuts), move |v| {
                cuts.iter().take_while(|&&c| v > c).count()
            }))
        }))
    }
}

// ---------------------------------------------------------------------
// Attribute removal / projection.
// ---------------------------------------------------------------------

/// Keep only the attributes at `keep` (in the given order); the class
/// index is remapped if the class attribute survives, cleared otherwise.
pub fn project(ds: &Dataset, keep: &[usize]) -> Result<Dataset> {
    for &k in keep {
        if k >= ds.num_attributes() {
            return Err(DataError::AttributeIndex {
                index: k,
                len: ds.num_attributes(),
            });
        }
    }
    let attributes: Vec<Attribute> = keep.iter().map(|&k| ds.attributes()[k].clone()).collect();
    let mut out = Dataset::new(ds.relation(), attributes);
    if let Some(ci) = ds.class_index() {
        if let Some(new_ci) = keep.iter().position(|&k| k == ci) {
            out.set_class_index(Some(new_ci))?;
        }
    }
    for r in 0..ds.num_instances() {
        let row: Vec<f64> = keep.iter().map(|&k| ds.value(r, k)).collect();
        out.push_row_weighted(row, ds.weight(r))?;
    }
    Ok(out)
}

/// Remove the attributes at `drop` (complement of [`project`]).
pub fn remove(ds: &Dataset, drop: &[usize]) -> Result<Dataset> {
    let keep: Vec<usize> = (0..ds.num_attributes())
        .filter(|i| !drop.contains(i))
        .collect();
    project(ds, &keep)
}

// ---------------------------------------------------------------------
// Resample.
// ---------------------------------------------------------------------

/// Random sample (without replacement if `fraction <= 1.0`; with
/// replacement otherwise) of a dataset, seeded.
pub fn resample(ds: &Dataset, fraction: f64, seed: u64) -> Result<Dataset> {
    if fraction <= 0.0 {
        return Err(DataError::InvalidParameter(format!(
            "fraction {fraction} must be > 0"
        )));
    }
    if ds.num_instances() == 0 {
        return Err(DataError::Empty);
    }
    let n = ds.num_instances();
    let target = (fraction * n as f64).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<usize> = if target <= n {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        order.truncate(target);
        order
    } else {
        use rand::Rng;
        (0..target).map(|_| rng.random_range(0..n)).collect()
    };
    Ok(ds.select_rows(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(
            "toy",
            vec![
                Attribute::numeric("x"),
                Attribute::nominal("colour", ["red", "green"]),
                Attribute::nominal("class", ["p", "n"]),
            ],
        );
        ds.set_class_index(Some(2)).unwrap();
        ds.push_labels(&["10", "red", "p"]).unwrap();
        ds.push_labels(&["20", "red", "n"]).unwrap();
        ds.push_labels(&["?", "green", "p"]).unwrap();
        ds.push_labels(&["40", "?", "p"]).unwrap();
        ds
    }

    #[test]
    fn normalize_scales_to_unit_interval() {
        let ds = toy();
        let out = Normalize::fit(&ds).apply(&ds).unwrap();
        assert_eq!(out.value(0, 0), 0.0);
        assert!((out.value(1, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.value(3, 0), 1.0);
        assert!(out.instance(2).is_missing(0)); // missing stays missing
        assert_eq!(out.value(0, 1), 0.0); // nominal untouched
    }

    #[test]
    fn normalize_fitted_on_train_replays_on_test() {
        let ds = toy();
        let f = Normalize::fit(&ds);
        let mut test = ds.header_clone();
        test.push_labels(&["25", "red", "p"]).unwrap();
        let out = f.apply(&test).unwrap();
        assert!((out.value(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standardize_zero_mean() {
        let ds = toy();
        let out = Standardize::fit(&ds).apply(&ds).unwrap();
        let vals: Vec<f64> = (0..4)
            .map(|r| out.value(r, 0))
            .filter(|v| !v.is_nan())
            .collect();
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn replace_missing_uses_mean_and_mode() {
        let ds = toy();
        let out = ReplaceMissing::fit(&ds).apply(&ds).unwrap();
        // Mean of 10,20,40 = 23.333...
        assert!((out.value(2, 0) - 70.0 / 3.0).abs() < 1e-9);
        // Mode of colour = red.
        assert_eq!(out.instance(3).label(1), Some("red"));
        assert!(!out.has_missing(0));
        assert!(!out.has_missing(1));
    }

    #[test]
    fn discretize_bins_numeric() {
        let ds = toy();
        let out = Discretize::fit(&ds, 3).unwrap().apply(&ds).unwrap();
        assert!(out.attribute(0).unwrap().is_nominal());
        assert_eq!(out.attribute(0).unwrap().num_labels(), 3);
        assert_eq!(out.instance(0).label(0), Some("bin1")); // 10 → first bin
        assert_eq!(out.instance(3).label(0), Some("bin3")); // 40 → last bin
        assert!(out.instance(2).is_missing(0));
        assert_eq!(out.class_index(), Some(2));
    }

    #[test]
    fn discretize_rejects_single_bin() {
        let ds = toy();
        assert!(Discretize::fit(&ds, 1).is_err());
    }

    #[test]
    fn discretizers_keep_string_attributes() {
        let mut ds = Dataset::new(
            "notes",
            vec![
                Attribute::string("note"),
                Attribute::numeric("x"),
                Attribute::nominal("c", ["p", "n"]),
            ],
        );
        ds.set_class_index(Some(2)).unwrap();
        for i in 0..8 {
            let note = ds.intern_string(["low", "high", "o'neil"][i % 3]);
            let note = if i == 5 { f64::NAN } else { note as f64 };
            ds.push_row(vec![note, i as f64, f64::from(u8::from(i >= 4))])
                .unwrap();
        }
        let equal_width = Discretize::fit(&ds, 2).unwrap().apply(&ds).unwrap();
        let mdl = SupervisedDiscretize::fit(&ds).unwrap().apply(&ds).unwrap();
        for out in [equal_width, mdl] {
            assert_eq!(out.strings(), ds.strings());
            assert_eq!(out.attribute(0).unwrap(), ds.attribute(0).unwrap());
            for r in 0..ds.num_instances() {
                assert_eq!(out.format_value(r, 0), ds.format_value(r, 0), "row {r}");
            }
            assert!(out.attribute(1).unwrap().is_nominal());
            assert_eq!(
                out.instance(0).label(1),
                out.attribute(1)
                    .unwrap()
                    .labels()
                    .first()
                    .map(String::as_str)
            );
        }
    }

    #[test]
    fn supervised_discretize_finds_the_informative_cut() {
        // x < 50 → class p, x >= 50 → class n: one cut near 50.
        let mut ds = Dataset::new(
            "sep",
            vec![Attribute::numeric("x"), Attribute::nominal("c", ["p", "n"])],
        );
        ds.set_class_index(Some(1)).unwrap();
        for i in 0..40 {
            ds.push_row(vec![i as f64, 0.0]).unwrap();
            ds.push_row(vec![(60 + i) as f64, 1.0]).unwrap();
        }
        let f = SupervisedDiscretize::fit(&ds).unwrap();
        let cuts = f.cut_points(0);
        assert_eq!(cuts.len(), 1, "cuts: {cuts:?}");
        assert!((cuts[0] - 49.5).abs() < 5.0, "cut at {}", cuts[0]);
        let out = f.apply(&ds).unwrap();
        assert!(out.attribute(0).unwrap().is_nominal());
        assert_eq!(out.attribute(0).unwrap().num_labels(), 2);
        // The binned attribute perfectly predicts the class.
        for r in 0..out.num_instances() {
            let bin = out.value(r, 0) as usize;
            let class = out.value(r, 1) as usize;
            assert_eq!(bin, class);
        }
    }

    #[test]
    fn supervised_discretize_rejects_uninformative_cuts() {
        // Class independent of x → MDL accepts no cut → single bin.
        let mut ds = Dataset::new(
            "noise",
            vec![Attribute::numeric("x"), Attribute::nominal("c", ["p", "n"])],
        );
        ds.set_class_index(Some(1)).unwrap();
        for i in 0..60 {
            ds.push_row(vec![i as f64, (i % 2) as f64]).unwrap();
        }
        let f = SupervisedDiscretize::fit(&ds).unwrap();
        assert!(f.cut_points(0).is_empty(), "cuts: {:?}", f.cut_points(0));
        let out = f.apply(&ds).unwrap();
        assert_eq!(out.attribute(0).unwrap().num_labels(), 1);
    }

    #[test]
    fn supervised_discretize_multi_region() {
        // Three class regions → at least two cuts.
        let mut ds = Dataset::new(
            "tri",
            vec![Attribute::numeric("x"), Attribute::nominal("c", ["a", "b"])],
        );
        ds.set_class_index(Some(1)).unwrap();
        for i in 0..30 {
            ds.push_row(vec![i as f64, 0.0]).unwrap();
            ds.push_row(vec![(40 + i) as f64, 1.0]).unwrap();
            ds.push_row(vec![(80 + i) as f64, 0.0]).unwrap();
        }
        let f = SupervisedDiscretize::fit(&ds).unwrap();
        assert!(f.cut_points(0).len() >= 2, "cuts: {:?}", f.cut_points(0));
    }

    #[test]
    fn supervised_discretize_requires_class() {
        let mut ds = Dataset::new("x", vec![Attribute::numeric("x")]);
        ds.push_row(vec![1.0]).unwrap();
        assert!(matches!(
            SupervisedDiscretize::fit(&ds),
            Err(DataError::NoClass)
        ));
    }

    #[test]
    fn supervised_discretize_preserves_missing() {
        let mut ds = Dataset::new(
            "m",
            vec![Attribute::numeric("x"), Attribute::nominal("c", ["p", "n"])],
        );
        ds.set_class_index(Some(1)).unwrap();
        for i in 0..20 {
            ds.push_row(vec![i as f64, f64::from(u8::from(i >= 10))])
                .unwrap();
        }
        ds.push_row(vec![f64::NAN, 0.0]).unwrap();
        let f = SupervisedDiscretize::fit(&ds).unwrap();
        let out = f.apply(&ds).unwrap();
        assert!(out.instance(20).is_missing(0));
    }

    #[test]
    fn project_remaps_class() {
        let ds = toy();
        let out = project(&ds, &[1, 2]).unwrap();
        assert_eq!(out.num_attributes(), 2);
        assert_eq!(out.class_index(), Some(1));
        assert_eq!(out.instance(0).label(0), Some("red"));
    }

    #[test]
    fn project_drops_class_when_excluded() {
        let ds = toy();
        let out = project(&ds, &[0, 1]).unwrap();
        assert_eq!(out.class_index(), None);
    }

    #[test]
    fn remove_is_complement_of_project() {
        let ds = toy();
        let out = remove(&ds, &[0]).unwrap();
        assert_eq!(out.num_attributes(), 2);
        assert_eq!(out.attribute(0).unwrap().name(), "colour");
    }

    #[test]
    fn project_out_of_range_rejected() {
        let ds = toy();
        assert!(project(&ds, &[7]).is_err());
    }

    #[test]
    fn resample_without_replacement() {
        let ds = toy();
        let out = resample(&ds, 0.5, 1).unwrap();
        assert_eq!(out.num_instances(), 2);
    }

    #[test]
    fn resample_with_replacement_can_exceed() {
        let ds = toy();
        let out = resample(&ds, 2.0, 1).unwrap();
        assert_eq!(out.num_instances(), 8);
    }

    #[test]
    fn resample_rejects_bad_fraction() {
        let ds = toy();
        assert!(resample(&ds, 0.0, 1).is_err());
    }

    #[test]
    fn normalize_preserves_validity_bitmaps() {
        // Scaling must not disturb missingness accounting: every
        // attribute's bitmap-backed missing count survives apply().
        let ds = toy();
        let out = Normalize::fit(&ds).apply(&ds).unwrap();
        for a in 0..ds.num_attributes() {
            assert_eq!(out.missing_count(a), ds.missing_count(a), "attr {a}");
        }
        assert_eq!(out.missing_count(0), 1);
    }

    #[test]
    fn fit_reads_only_present_cells_from_bitmap() {
        // The min/max and moment scans must skip exactly the cells the
        // validity bitmap marks missing — the fill values stored under
        // cleared bits (0.0) must never leak into the statistics.
        let ds = toy(); // x present values: 10, 20, 40 (row 2 missing)
        let n = Normalize::fit(&ds);
        let out = n.apply(&ds).unwrap();
        // If the 0.0 filler leaked, min would be 0 and 10 would map to
        // 0.25 instead of 0.0.
        assert_eq!(out.value(0, 0), 0.0);
        assert_eq!(out.value(3, 0), 1.0);
        let s = Standardize::fit(&ds);
        let out = s.apply(&ds).unwrap();
        let mean = 70.0 / 3.0; // mean over present cells only
        let ss: f64 = [10.0f64, 20.0, 40.0]
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum();
        let sd = (ss / 3.0).sqrt();
        assert!((out.value(0, 0) - (10.0 - mean) / sd).abs() < 1e-12);
    }

    #[test]
    fn replace_missing_clears_validity_bitmaps() {
        // Imputation must flip the cleared bits: afterwards no column
        // with a learned fill value reports missing cells.
        let ds = toy();
        assert_eq!(ds.missing_count(0), 1);
        assert_eq!(ds.missing_count(1), 1);
        let out = ReplaceMissing::fit(&ds).apply(&ds).unwrap();
        for a in 0..out.num_attributes() {
            assert_eq!(out.missing_count(a), 0, "attr {a}");
        }
    }

    #[test]
    fn apply_arity_checked() {
        let ds = toy();
        let f = Normalize::fit(&ds);
        let other = Dataset::new("other", vec![Attribute::numeric("x")]);
        assert!(f.apply(&other).is_err());
    }
}
