//! Clustering algorithms.
//!
//! The paper's clustering Web Services ("Web Services have been
//! developed and deployed for a variety of different clustering
//! algorithms", §4.1, with Cobweb as the worked example) are backed by
//! these implementations. All ignore the class attribute if one is set,
//! so labelled corpora can be clustered and scored against ground truth.

mod cobweb;
mod em;
mod farthest_first;
mod hierarchical;
mod incremental_kmeans;
mod kmeans;

pub use cobweb::Cobweb;
pub use em::EM;
pub use farthest_first::FarthestFirst;
pub use hierarchical::{Hierarchical, Linkage};
pub use incremental_kmeans::IncrementalKMeans;
pub use kmeans::KMeans;

use crate::error::{AlgoError, Result};
use crate::options::Configurable;
use crate::state::Stateful;
use crate::tree::TreeModel;
use dm_data::{Dataset, Value};

/// A trainable clustering algorithm.
pub trait Clusterer: Configurable + Stateful + Send {
    /// Registry name, e.g. `"SimpleKMeans"`.
    fn name(&self) -> &'static str;

    /// Build the clustering from `data`.
    fn build(&mut self, data: &Dataset) -> Result<()>;

    /// Cluster index assigned to row `row` of `data`.
    fn cluster_instance(&self, data: &Dataset, row: usize) -> Result<usize>;

    /// Cluster index of every row of `data`, in row order: by contract
    /// the same indices as [`Clusterer::cluster_instance`] row by row,
    /// which is what this default calls (the first error wins). A
    /// clusterer with a whole-dataset path overrides it; `KMeans` scores
    /// every row in one columnar scan.
    fn assignments(&self, data: &Dataset) -> Result<Vec<usize>> {
        (0..data.num_instances())
            .map(|r| self.cluster_instance(data, r))
            .collect()
    }

    /// Number of clusters in the built model.
    fn num_clusters(&self) -> Result<usize>;

    /// Human-readable model description (the paper's "textual output
    /// describing the clustering results").
    fn describe(&self) -> String;

    /// Hierarchy rendering for tree-shaped clusterers (the paper's
    /// `getCobwebGraph` operation). `None` for flat clusterers.
    fn tree_model(&self) -> Option<TreeModel> {
        None
    }
}

/// Shared distance machinery: range-normalised numeric differences and
/// 0/1 nominal overlap, with missing values contributing the maximum
/// difference — the same convention as `IBk`.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct DistanceSpace {
    pub ranges: Vec<Option<(f64, f64)>>,
    pub nominal: Vec<bool>,
    pub skip: Vec<bool>,
}

impl DistanceSpace {
    /// Fit ranges from data, skipping the class attribute.
    pub fn fit(data: &Dataset) -> DistanceSpace {
        let class = data.class_index();
        let n_attrs = data.num_attributes();
        let mut ranges = Vec::with_capacity(n_attrs);
        let mut nominal = Vec::with_capacity(n_attrs);
        let mut skip = Vec::with_capacity(n_attrs);
        for a in 0..n_attrs {
            let attr = &data.attributes()[a];
            nominal.push(attr.is_nominal());
            skip.push(Some(a) == class || attr.is_string());
            if attr.is_numeric() {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for r in 0..data.num_instances() {
                    let v = data.value(r, a);
                    if !Value::is_missing(v) {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                ranges.push((min <= max).then_some((min, max)));
            } else {
                ranges.push(None);
            }
        }
        DistanceSpace {
            ranges,
            nominal,
            skip,
        }
    }

    /// Normalise one raw value for attribute `a` into `[0, 1]`.
    #[inline]
    pub fn norm(&self, a: usize, v: f64) -> f64 {
        match self.ranges[a] {
            Some((min, max)) if max > min => ((v - min) / (max - min)).clamp(0.0, 1.0),
            _ => 0.0,
        }
    }

    /// Distance between a raw data row and a normalised centroid
    /// (`centroid[a]` is the normalised mean for numeric attributes and
    /// the modal label index for nominal ones).
    pub fn distance_to_centroid(&self, data: &Dataset, row: usize, centroid: &[f64]) -> f64 {
        let mut d = 0.0;
        for a in 0..centroid.len() {
            if self.skip[a] {
                continue;
            }
            let v = data.value(row, a);
            let c = centroid[a];
            let diff = if Value::is_missing(v) || Value::is_missing(c) {
                1.0
            } else if self.nominal[a] {
                if Value::as_index(v) == Value::as_index(c) {
                    0.0
                } else {
                    1.0
                }
            } else {
                self.norm(a, v) - c
            };
            d += diff * diff;
        }
        d.sqrt()
    }

    /// Distance between two raw data rows (possibly across datasets).
    pub fn distance_rows(
        &self,
        a_data: &Dataset,
        a_row: usize,
        b_data: &Dataset,
        b_row: usize,
    ) -> f64 {
        let mut d = 0.0;
        for a in 0..self.skip.len() {
            if self.skip[a] {
                continue;
            }
            let x = a_data.value(a_row, a);
            let y = b_data.value(b_row, a);
            let diff = if Value::is_missing(x) || Value::is_missing(y) {
                1.0
            } else if self.nominal[a] {
                if Value::as_index(x) == Value::as_index(y) {
                    0.0
                } else {
                    1.0
                }
            } else {
                self.norm(a, x) - self.norm(a, y)
            };
            d += diff * diff;
        }
        d.sqrt()
    }

    /// Encode into a state writer.
    pub fn encode(&self, w: &mut crate::state::StateWriter) {
        w.put_usize(self.ranges.len());
        for r in &self.ranges {
            match r {
                None => w.put_bool(false),
                Some((min, max)) => {
                    w.put_bool(true);
                    w.put_f64(*min);
                    w.put_f64(*max);
                }
            }
        }
        w.put_usize(self.nominal.len());
        for &b in &self.nominal {
            w.put_bool(b);
        }
        w.put_usize(self.skip.len());
        for &b in &self.skip {
            w.put_bool(b);
        }
    }

    /// Decode from a state reader.
    pub fn decode(r: &mut crate::state::StateReader<'_>) -> Result<DistanceSpace> {
        let n = r.get_usize()?;
        if n > 1 << 20 {
            return Err(AlgoError::BadState("absurd range count".into()));
        }
        let ranges = (0..n)
            .map(|_| -> Result<Option<(f64, f64)>> {
                Ok(if r.get_bool()? {
                    Some((r.get_f64()?, r.get_f64()?))
                } else {
                    None
                })
            })
            .collect::<Result<_>>()?;
        let nn = r.get_usize()?;
        if nn > 1 << 20 {
            return Err(AlgoError::BadState("absurd nominal count".into()));
        }
        let nominal = (0..nn).map(|_| r.get_bool()).collect::<Result<_>>()?;
        let ns = r.get_usize()?;
        if ns > 1 << 20 {
            return Err(AlgoError::BadState("absurd skip count".into()));
        }
        let skip = (0..ns).map(|_| r.get_bool()).collect::<Result<_>>()?;
        Ok(DistanceSpace {
            ranges,
            nominal,
            skip,
        })
    }
}

/// Validate clustering input: at least one instance and one usable
/// attribute.
pub(crate) fn check_clusterable(data: &Dataset) -> Result<()> {
    if data.num_instances() == 0 {
        return Err(AlgoError::Data(dm_data::DataError::Empty));
    }
    let class = data.class_index();
    let usable =
        (0..data.num_attributes()).any(|a| Some(a) != class && !data.attributes()[a].is_string());
    if !usable {
        return Err(AlgoError::Unsupported(
            "no usable attributes to cluster on".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    use dm_data::corpus::{gaussian_blobs, BlobSpec};
    use dm_data::Dataset;

    /// Three well-separated 2-D blobs (ground truth in the class attr).
    pub fn three_blobs() -> Dataset {
        gaussian_blobs(
            &[
                BlobSpec {
                    center: vec![0.0, 0.0],
                    stddev: 0.3,
                    count: 50,
                },
                BlobSpec {
                    center: vec![10.0, 0.0],
                    stddev: 0.3,
                    count: 50,
                },
                BlobSpec {
                    center: vec![0.0, 10.0],
                    stddev: 0.3,
                    count: 50,
                },
            ],
            42,
        )
    }

    /// Fraction of instance pairs whose same/different-cluster relation
    /// agrees with ground truth (Rand index).
    pub fn rand_index(ds: &Dataset, assignments: &[usize]) -> f64 {
        let ci = ds.class_index().expect("blobs have ground truth");
        let n = ds.num_instances();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let same_true = ds.value(i, ci) == ds.value(j, ci);
                let same_pred = assignments[i] == assignments[j];
                if same_true == same_pred {
                    agree += 1;
                }
                total += 1;
            }
        }
        agree as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_data::{Attribute, Dataset};

    #[test]
    fn distance_space_skips_class() {
        let mut ds = Dataset::new(
            "t",
            vec![Attribute::numeric("x"), Attribute::nominal("c", ["a", "b"])],
        );
        ds.set_class_index(Some(1)).unwrap();
        ds.push_row(vec![0.0, 0.0]).unwrap();
        ds.push_row(vec![10.0, 1.0]).unwrap();
        let space = DistanceSpace::fit(&ds);
        assert!(space.skip[1]);
        // Distance ignores the differing class label.
        let d = space.distance_rows(&ds, 0, &ds, 1);
        assert!((d - 1.0).abs() < 1e-12); // normalised numeric diff = 1
    }

    #[test]
    fn missing_is_maximal() {
        let mut ds = Dataset::new("t", vec![Attribute::numeric("x")]);
        ds.push_row(vec![5.0]).unwrap();
        ds.push_row(vec![f64::NAN]).unwrap();
        ds.push_row(vec![5.0]).unwrap();
        let space = DistanceSpace::fit(&ds);
        assert_eq!(space.distance_rows(&ds, 0, &ds, 1), 1.0);
        assert_eq!(space.distance_rows(&ds, 0, &ds, 2), 0.0);
    }

    #[test]
    fn state_roundtrip() {
        let mut ds = Dataset::new(
            "t",
            vec![Attribute::numeric("x"), Attribute::nominal("n", ["u", "v"])],
        );
        ds.push_row(vec![1.0, 0.0]).unwrap();
        ds.push_row(vec![3.0, 1.0]).unwrap();
        let space = DistanceSpace::fit(&ds);
        let mut w = crate::state::StateWriter::new();
        space.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::state::StateReader::new(&bytes);
        let space2 = DistanceSpace::decode(&mut r).unwrap();
        assert_eq!(space, space2);
    }

    #[test]
    fn assignments_match_cluster_instance_for_every_registered_clusterer() {
        // Blobs, and the mixed weather data with missing cells.
        let mut weather = dm_data::corpus::weather_numeric();
        weather.set_value(2, 1, f64::NAN);
        weather.set_value(5, 0, f64::NAN);
        let datasets = [test_support::three_blobs(), weather];
        for name in crate::registry::clusterer_names() {
            let unbuilt = crate::registry::make_clusterer(name).unwrap();
            assert!(unbuilt.assignments(&datasets[0]).is_err(), "{name} unbuilt");
            for ds in &datasets {
                let mut c = crate::registry::make_clusterer(name).unwrap();
                c.build(ds).unwrap();
                let per_row: Vec<usize> = (0..ds.num_instances())
                    .map(|r| c.cluster_instance(ds, r).unwrap())
                    .collect();
                assert_eq!(
                    c.assignments(ds).unwrap(),
                    per_row,
                    "{name} on {}",
                    ds.relation()
                );
            }
        }
    }

    #[test]
    fn clusterable_checks() {
        let ds = Dataset::new("e", vec![Attribute::numeric("x")]);
        assert!(check_clusterable(&ds).is_err()); // empty
        let mut ds2 = Dataset::new("c", vec![Attribute::nominal("c", ["a", "b"])]);
        ds2.set_class_index(Some(0)).unwrap();
        ds2.push_labels(&["a"]).unwrap();
        assert!(check_clusterable(&ds2).is_err()); // only the class attr
    }
}
