//! Classification algorithms.
//!
//! Every classifier implements [`Classifier`]: train on a [`Dataset`]
//! whose class attribute is nominal, then produce a per-class
//! probability distribution for unseen instances. All classifiers also
//! implement [`crate::options::Configurable`] (WEKA-style options for
//! the `getOptions` Web Service operation) and
//! [`crate::state::Stateful`] (binary model state for the §4.5
//! lifecycle experiment).

mod adaboost;
mod bagging;
mod decision_stump;
mod hoeffding;
mod ibk;
mod j48;
mod logistic;
mod mlp;
mod naive_bayes;
mod one_r;
mod prism;
mod random_forest;
mod random_tree;
mod zero_r;

pub use adaboost::AdaBoostM1;
pub use bagging::Bagging;
pub use decision_stump::DecisionStump;
pub use hoeffding::HoeffdingTree;
pub use ibk::IBk;
pub use j48::J48;
pub use logistic::Logistic;
pub use mlp::MultilayerPerceptron;
pub use naive_bayes::NaiveBayes;
pub use one_r::OneR;
pub use prism::Prism;
pub use random_forest::RandomForest;
pub use random_tree::RandomTree;
pub use zero_r::ZeroR;

use crate::error::{AlgoError, Result};
use crate::options::Configurable;
use crate::state::Stateful;
use crate::tree::TreeModel;
use dm_data::Dataset;

/// A trainable classification algorithm.
///
/// `Sync` is a supertrait so trained models can be scored from several
/// pool workers at once (batched `classifyInstances`, parallel
/// cross-validation); no classifier uses interior mutability.
pub trait Classifier: Configurable + Stateful + Send + Sync {
    /// Registry name, e.g. `"J48"`.
    fn name(&self) -> &'static str;

    /// Train on `data` (class attribute must be set and nominal).
    fn train(&mut self, data: &Dataset) -> Result<()>;

    /// Per-class probability distribution for row `row` of `data`
    /// (which must share the training header). Sums to 1 unless the
    /// model abstains entirely.
    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>>;

    /// Predicted class index (argmax of [`Classifier::distribution`]).
    fn predict(&self, data: &Dataset, row: usize) -> Result<usize> {
        let dist = self.distribution(data, row)?;
        argmax(&dist).ok_or(AlgoError::NotTrained)
    }

    /// Predicted class index for every row of `data`, scoring the rows
    /// as one compute-pool batch (the batched `classifyInstances`
    /// path), which fans out when it is long enough to pay for
    /// threads. Deterministic: the result is the
    /// concatenation of per-row [`Classifier::predict`] calls
    /// regardless of pool width.
    fn predict_batch(&self, data: &Dataset) -> Result<Vec<usize>> {
        let results =
            crate::pool::parallel_map(data.num_instances(), |row| self.predict(data, row));
        results.into_iter().collect()
    }

    /// Human-readable model description (the paper's "textual output").
    fn describe(&self) -> String;

    /// Structured tree rendering, for tree-shaped models (the paper's
    /// `classify graph` operation). `None` for non-tree models.
    fn tree_model(&self) -> Option<TreeModel> {
        None
    }
}

/// Index of the maximum element (first on ties); `None` for empty input.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// Validate that `data` has a nominal class and at least one instance;
/// returns `(class_index, num_classes)`.
pub(crate) fn check_trainable(data: &Dataset) -> Result<(usize, usize)> {
    let ci = data
        .class_index()
        .ok_or(AlgoError::Data(dm_data::DataError::NoClass))?;
    let k = data.num_classes()?;
    if data.num_instances() == 0 {
        return Err(AlgoError::Data(dm_data::DataError::Empty));
    }
    if k < 2 {
        return Err(AlgoError::Unsupported(format!(
            "class has {k} label(s); need >= 2"
        )));
    }
    Ok((ci, k))
}

/// Shannon entropy (bits) of a weighted count vector.
pub(crate) fn entropy(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0.0 {
            let p = c / total;
            h -= p * p.log2();
        }
    }
    h
}

/// Normalise a vector to sum to 1 in place; leaves all-zero input as a
/// uniform distribution.
pub(crate) fn normalize(dist: &mut [f64]) {
    let total: f64 = dist.iter().sum();
    if total > 0.0 {
        for d in dist.iter_mut() {
            *d /= total;
        }
    } else if !dist.is_empty() {
        let u = 1.0 / dist.len() as f64;
        for d in dist.iter_mut() {
            *d = u;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Small datasets shared by classifier unit tests.

    use dm_data::{Attribute, Dataset};

    /// Quinlan's 14-row play-tennis ("weather") dataset, the canonical
    /// C4.5 test fixture. Root split must be `outlook`.
    pub fn weather_nominal() -> Dataset {
        let mut ds = Dataset::new(
            "weather.nominal",
            vec![
                Attribute::nominal("outlook", ["sunny", "overcast", "rainy"]),
                Attribute::nominal("temperature", ["hot", "mild", "cool"]),
                Attribute::nominal("humidity", ["high", "normal"]),
                Attribute::nominal("windy", ["true", "false"]),
                Attribute::nominal("play", ["yes", "no"]),
            ],
        );
        ds.set_class_index(Some(4)).unwrap();
        let rows = [
            ["sunny", "hot", "high", "false", "no"],
            ["sunny", "hot", "high", "true", "no"],
            ["overcast", "hot", "high", "false", "yes"],
            ["rainy", "mild", "high", "false", "yes"],
            ["rainy", "cool", "normal", "false", "yes"],
            ["rainy", "cool", "normal", "true", "no"],
            ["overcast", "cool", "normal", "true", "yes"],
            ["sunny", "mild", "high", "false", "no"],
            ["sunny", "cool", "normal", "false", "yes"],
            ["rainy", "mild", "normal", "false", "yes"],
            ["sunny", "mild", "normal", "true", "yes"],
            ["overcast", "mild", "high", "true", "yes"],
            ["overcast", "hot", "normal", "false", "yes"],
            ["rainy", "mild", "high", "true", "no"],
        ];
        for r in rows {
            ds.push_labels(&r).unwrap();
        }
        ds
    }

    /// Weather with numeric temperature/humidity (WEKA's weather.arff).
    pub fn weather_numeric() -> Dataset {
        let mut ds = Dataset::new(
            "weather.numeric",
            vec![
                Attribute::nominal("outlook", ["sunny", "overcast", "rainy"]),
                Attribute::numeric("temperature"),
                Attribute::numeric("humidity"),
                Attribute::nominal("windy", ["true", "false"]),
                Attribute::nominal("play", ["yes", "no"]),
            ],
        );
        ds.set_class_index(Some(4)).unwrap();
        let rows = [
            ["sunny", "85", "85", "false", "no"],
            ["sunny", "80", "90", "true", "no"],
            ["overcast", "83", "86", "false", "yes"],
            ["rainy", "70", "96", "false", "yes"],
            ["rainy", "68", "80", "false", "yes"],
            ["rainy", "65", "70", "true", "no"],
            ["overcast", "64", "65", "true", "yes"],
            ["sunny", "72", "95", "false", "no"],
            ["sunny", "69", "70", "false", "yes"],
            ["rainy", "75", "80", "false", "yes"],
            ["sunny", "75", "70", "true", "yes"],
            ["overcast", "72", "90", "true", "yes"],
            ["overcast", "81", "75", "false", "yes"],
            ["rainy", "71", "91", "true", "no"],
        ];
        for r in rows {
            ds.push_labels(&r).unwrap();
        }
        ds
    }

    /// A linearly separable two-class numeric set.
    pub fn separable_numeric(n_per_class: usize) -> Dataset {
        let mut ds = Dataset::new(
            "separable",
            vec![
                Attribute::numeric("x"),
                Attribute::numeric("y"),
                Attribute::nominal("c", ["neg", "pos"]),
            ],
        );
        ds.set_class_index(Some(2)).unwrap();
        for i in 0..n_per_class {
            let t = i as f64 / n_per_class as f64;
            ds.push_row(vec![t, t + 0.1, 0.0]).unwrap();
            ds.push_row(vec![t + 5.0, t + 5.1, 1.0]).unwrap();
        }
        ds
    }

    /// Training-set accuracy of a trained classifier.
    pub fn resubstitution_accuracy(c: &dyn super::Classifier, ds: &Dataset) -> f64 {
        let ci = ds.class_index().unwrap();
        let mut hits = 0usize;
        for r in 0..ds.num_instances() {
            if c.predict(ds, r).unwrap() == ds.value(r, ci) as usize {
                hits += 1;
            }
        }
        hits as f64 / ds.num_instances() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[0.2, 0.5, 0.3]), Some(1));
        assert_eq!(argmax(&[0.5, 0.5]), Some(0)); // first on ties
    }

    #[test]
    fn entropy_known_values() {
        assert_eq!(entropy(&[5.0, 0.0]), 0.0);
        assert!((entropy(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[9.0, 5.0]) - 0.9402859586706311).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn normalize_behaviour() {
        let mut v = vec![2.0, 2.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.5, 0.5]);
        let mut z = vec![0.0, 0.0, 0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.25; 4]);
    }

    #[test]
    fn trainable_checks() {
        use dm_data::{Attribute, Dataset};
        let mut ds = Dataset::new("t", vec![Attribute::nominal("c", ["a", "b"])]);
        assert!(check_trainable(&ds).is_err()); // no class set
        ds.set_class_index(Some(0)).unwrap();
        assert!(check_trainable(&ds).is_err()); // empty
        ds.push_labels(&["a"]).unwrap();
        assert_eq!(check_trainable(&ds).unwrap(), (0, 2));
    }
}
