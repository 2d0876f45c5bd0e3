//! IBk: k-nearest-neighbour classification (WEKA's `IBk`).
//!
//! Distance is heterogeneous-Euclidean/overlap: numeric attributes are
//! range-normalised and compared by squared difference; nominal
//! attributes contribute 0/1 overlap; missing values contribute the
//! maximal difference (1), as in WEKA. Votes may be distance-weighted.
//!
//! The training store is **columnar**: per-attribute buffers with
//! pre-normalised numeric values, dense nominal codes, and validity
//! bitmaps. The distance scan accumulates per-attribute columns into a
//! block of per-row accumulators instead of gathering one row at a
//! time, which keeps the inner loops branch-light and cache-friendly
//! while producing bit-identical sums (each accumulator still receives
//! its contributions in attribute order 0..n, exactly like the old
//! row-wise loop).

use super::{check_trainable, normalize, Classifier};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::pool;
use crate::state::{StateReader, StateWriter, Stateful};
use dm_data::{Bitmap, Dataset, Value};
use std::collections::BinaryHeap;

/// A candidate neighbour under the total order `(distance, stored
/// index)`. The index tiebreak makes k-selection deterministic (the old
/// `select_nth_unstable` left ties at the k-boundary arbitrary) and
/// lets per-block results merge into the same global k-set no matter
/// how the scan was partitioned.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbour {
    d: f64,
    idx: usize,
}

impl Eq for Neighbour {}

impl Ord for Neighbour {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d
            .partial_cmp(&other.d)
            .expect("no NaN distances")
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Neighbour {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Distance weighting schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceWeighting {
    /// All neighbours vote equally.
    None,
    /// Votes weighted by `1/d`.
    Inverse,
    /// Votes weighted by `1 - d`.
    Similarity,
}

/// One attribute of the columnar training store. `raw` keeps the
/// original encoded cells (`NaN` = missing) so the wire format of
/// [`Stateful::encode_state`] is unchanged from the row-major store.
#[derive(Debug, Clone)]
struct StoreColumn {
    raw: Vec<f64>,
    valid: Bitmap,
    kind: StoreKind,
}

#[derive(Debug, Clone)]
enum StoreKind {
    /// Numeric attribute with a usable range: values pre-normalised
    /// with the same `((v - min) / (max - min)).clamp(0.0, 1.0)`
    /// expression the scan applies to queries (missing cells hold 0.0).
    Numeric { norm: Vec<f64> },
    /// Nominal attribute: dense codes (missing cells hold 0).
    Nominal { codes: Vec<u32> },
    /// String attributes, degenerate-range numerics, and the class
    /// column: only missingness contributes to distance.
    Inert,
}

impl StoreColumn {
    fn push(&mut self, v: f64, range: Option<(f64, f64)>) {
        let missing = Value::is_missing(v);
        self.raw.push(if missing { Value::MISSING } else { v });
        self.valid.push(!missing);
        match &mut self.kind {
            StoreKind::Numeric { norm } => {
                let (min, max) = range.expect("numeric store column has a range");
                norm.push(if missing {
                    0.0
                } else {
                    ((v - min) / (max - min)).clamp(0.0, 1.0)
                });
            }
            StoreKind::Nominal { codes } => {
                codes.push(if missing {
                    0
                } else {
                    Value::as_index(v) as u32
                });
            }
            StoreKind::Inert => {}
        }
    }
}

/// The per-query scan plan for one attribute: what the query holds
/// there, pre-resolved so the block scan never re-inspects the query.
enum AttrPlan<'a> {
    /// The class attribute — skipped entirely.
    Skip,
    /// Query missing here: every stored row contributes 1.0.
    AllOnes,
    /// Numeric attribute, query present: pre-normalised query value
    /// against the pre-normalised stored column.
    Numeric {
        nq: f64,
        norm: &'a [f64],
        valid: &'a Bitmap,
    },
    /// Nominal attribute, query present: 0/1 overlap against codes.
    Nominal {
        qc: u32,
        codes: &'a [u32],
        valid: &'a Bitmap,
    },
    /// Inert attribute, query present: only stored-missing rows add 1.0.
    Inert { valid: &'a Bitmap },
}

/// The k-nearest-neighbour classifier.
#[derive(Debug, Clone)]
pub struct IBk {
    /// `-K`: neighbourhood size.
    k: usize,
    /// `-I` / `-F`: distance weighting.
    weighting: DistanceWeighting,
    // Training store: the instance-based model *is* the data, held as
    // per-attribute columns.
    store: Vec<StoreColumn>,
    n_stored: usize,
    classes: Vec<usize>,
    ranges: Vec<Option<(f64, f64)>>,
    nominal: Vec<bool>,
    class_index: usize,
    num_classes: usize,
    trained: bool,
}

impl Default for IBk {
    fn default() -> Self {
        IBk {
            k: 1,
            weighting: DistanceWeighting::None,
            store: Vec::new(),
            n_stored: 0,
            classes: Vec::new(),
            ranges: Vec::new(),
            nominal: Vec::new(),
            class_index: 0,
            num_classes: 0,
            trained: false,
        }
    }
}

impl IBk {
    /// Create a 1-NN classifier (WEKA default).
    pub fn new() -> IBk {
        IBk::default()
    }

    /// Create with an explicit `k`.
    pub fn with_k(k: usize) -> IBk {
        IBk {
            k: k.max(1),
            ..IBk::default()
        }
    }

    /// Empty store columns for the current `ranges`/`nominal` metadata.
    fn empty_store(&self) -> Vec<StoreColumn> {
        (0..self.nominal.len())
            .map(|a| {
                let kind = if self.nominal[a] {
                    StoreKind::Nominal { codes: Vec::new() }
                } else if matches!(self.ranges[a], Some((min, max)) if max > min) {
                    StoreKind::Numeric { norm: Vec::new() }
                } else {
                    StoreKind::Inert
                };
                StoreColumn {
                    raw: Vec::new(),
                    valid: Bitmap::new(),
                    kind,
                }
            })
            .collect()
    }

    /// Append one encoded row to the columnar store.
    fn store_row(&mut self, row: &[f64]) {
        for (a, &v) in row.iter().enumerate() {
            let range = self.ranges[a];
            self.store[a].push(v, range);
        }
        self.n_stored += 1;
    }

    /// Gather stored row `idx` back to its encoded form (`NaN` =
    /// missing) — the state-encoding and test-reference path.
    fn stored_row(&self, idx: usize) -> Vec<f64> {
        self.store.iter().map(|col| col.raw[idx]).collect()
    }

    /// Build the per-attribute scan plan for one query row.
    fn plan<'a>(&'a self, query: &[f64]) -> Vec<AttrPlan<'a>> {
        query
            .iter()
            .enumerate()
            .map(|(a, &q)| {
                if a == self.class_index {
                    return AttrPlan::Skip;
                }
                if Value::is_missing(q) {
                    return AttrPlan::AllOnes;
                }
                let col = &self.store[a];
                match &col.kind {
                    StoreKind::Numeric { norm } => {
                        let (min, max) = self.ranges[a].expect("numeric column has range");
                        AttrPlan::Numeric {
                            nq: ((q - min) / (max - min)).clamp(0.0, 1.0),
                            norm,
                            valid: &col.valid,
                        }
                    }
                    StoreKind::Nominal { codes } => AttrPlan::Nominal {
                        qc: Value::as_index(q) as u32,
                        codes,
                        valid: &col.valid,
                    },
                    StoreKind::Inert => AttrPlan::Inert { valid: &col.valid },
                }
            })
            .collect()
    }

    /// Vectorized distance scan: accumulate squared diffs column by
    /// column into per-row accumulators for `range`, then take square
    /// roots. Each accumulator receives its contributions in attribute
    /// order, so the per-row sums are bit-identical to the old
    /// row-at-a-time gather (skipped zero contributions add exactly
    /// `0.0` and are elided).
    fn scan_block(&self, plan: &[AttrPlan<'_>], range: std::ops::Range<usize>) -> Vec<f64> {
        let start = range.start;
        let mut acc = vec![0.0f64; range.len()];
        for ap in plan {
            match ap {
                AttrPlan::Skip => {}
                AttrPlan::AllOnes => {
                    for d in acc.iter_mut() {
                        *d += 1.0;
                    }
                }
                AttrPlan::Numeric { nq, norm, valid } => {
                    let col = &norm[range.clone()];
                    if valid.all_valid() {
                        for (d, &ns) in acc.iter_mut().zip(col) {
                            let diff = nq - ns;
                            *d += diff * diff;
                        }
                    } else {
                        for (i, (d, &ns)) in acc.iter_mut().zip(col).enumerate() {
                            if valid.get(start + i) {
                                let diff = nq - ns;
                                *d += diff * diff;
                            } else {
                                *d += 1.0;
                            }
                        }
                    }
                }
                AttrPlan::Nominal { qc, codes, valid } => {
                    let col = &codes[range.clone()];
                    if valid.all_valid() {
                        for (d, &c) in acc.iter_mut().zip(col) {
                            *d += f64::from(c != *qc);
                        }
                    } else {
                        for (i, (d, &c)) in acc.iter_mut().zip(col).enumerate() {
                            *d += f64::from(!valid.get(start + i) || c != *qc);
                        }
                    }
                }
                AttrPlan::Inert { valid } => {
                    if !valid.all_valid() {
                        for (i, d) in acc.iter_mut().enumerate() {
                            if !valid.get(start + i) {
                                *d += 1.0;
                            }
                        }
                    }
                }
            }
        }
        for d in acc.iter_mut() {
            *d = d.sqrt();
        }
        acc
    }

    /// The `kk` nearest stored rows to the planned query within
    /// `range`: one columnar scan for the distances, then a bounded
    /// max-heap (O(len log kk)) over `(distance, index)`.
    fn k_nearest_in_block(
        &self,
        plan: &[AttrPlan<'_>],
        range: std::ops::Range<usize>,
        kk: usize,
    ) -> Vec<Neighbour> {
        let start = range.start;
        let distances = self.scan_block(plan, range);
        let mut heap: BinaryHeap<Neighbour> = BinaryHeap::with_capacity(kk + 1);
        for (i, &d) in distances.iter().enumerate() {
            let cand = Neighbour { d, idx: start + i };
            if heap.len() < kk {
                heap.push(cand);
            } else if cand < *heap.peek().expect("kk >= 1") {
                heap.pop();
                heap.push(cand);
            }
        }
        heap.into_vec()
    }

    /// The global `kk` nearest neighbours of `query`, sorted ascending
    /// by `(distance, index)`. The store is scanned as row blocks on the
    /// pool; because the order is total, the merged global k-set (and
    /// therefore the vote) is identical for any partitioning.
    fn k_nearest(&self, query: &[f64], kk: usize) -> Vec<Neighbour> {
        let plan = self.plan(query);
        let mut candidates = pool::scan_rows(self.n_stored, |rows| {
            self.k_nearest_in_block(&plan, rows, kk)
        });
        candidates.sort_unstable();
        candidates.truncate(kk);
        candidates
    }

    /// Vote over a sorted neighbour set.
    fn vote(&self, neighbours: &[Neighbour]) -> Vec<f64> {
        let mut dist = vec![0.0; self.num_classes];
        for nb in neighbours {
            let w = match self.weighting {
                DistanceWeighting::None => 1.0,
                DistanceWeighting::Inverse => 1.0 / (nb.d + 1e-9),
                DistanceWeighting::Similarity => (1.0 - nb.d).max(0.0),
            };
            dist[self.classes[nb.idx]] += w;
        }
        normalize(&mut dist);
        dist
    }
}

impl Classifier for IBk {
    fn name(&self) -> &'static str {
        "IBk"
    }

    fn train(&mut self, data: &Dataset) -> Result<()> {
        let (ci, k) = check_trainable(data)?;
        self.class_index = ci;
        self.num_classes = k;
        self.nominal = data.attributes().iter().map(|a| a.is_nominal()).collect();
        self.ranges = (0..data.num_attributes())
            .map(|a| {
                if !data.attributes()[a].is_numeric() {
                    return None;
                }
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                if let Some((values, valid)) = data.column(a).numeric() {
                    for (r, &v) in values.iter().enumerate() {
                        if valid.get(r) {
                            min = min.min(v);
                            max = max.max(v);
                        }
                    }
                }
                (min <= max).then_some((min, max))
            })
            .collect();
        self.store = self.empty_store();
        self.n_stored = 0;
        self.classes.clear();
        let class_col = data.column(ci);
        let mut scratch = Vec::with_capacity(data.num_attributes());
        for r in 0..data.num_instances() {
            let Some(cv) = class_col.index_at(r) else {
                continue;
            };
            data.copy_row_into(r, &mut scratch);
            self.store_row(&scratch);
            self.classes.push(cv);
        }
        if self.n_stored == 0 {
            return Err(AlgoError::Unsupported(
                "no instances with a class value".into(),
            ));
        }
        self.trained = true;
        Ok(())
    }

    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>> {
        if !self.trained {
            return Err(AlgoError::NotTrained);
        }
        let query = data.row_values(row);
        let kk = self.k.min(self.n_stored);
        // Bounded k-selection (O(n log k)), then votes accumulated in
        // (distance, index) order — the same order serial and pooled
        // scans produce, so the distribution is byte-identical.
        let neighbours = self.k_nearest(&query, kk);
        Ok(self.vote(&neighbours))
    }

    fn describe(&self) -> String {
        if !self.trained {
            return "IBk: not trained".to_string();
        }
        format!(
            "IB{} instance-based classifier ({} stored instances, weighting {:?})",
            self.k, self.n_stored, self.weighting
        )
    }
}

impl Configurable for IBk {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-K",
                name: "numNeighbours",
                description: "number of nearest neighbours",
                default: "1".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 10_000,
                },
            },
            OptionDescriptor {
                flag: "-W",
                name: "distanceWeighting",
                description: "neighbour vote weighting",
                default: "none".into(),
                kind: OptionKind::Choice(vec![
                    "none".into(),
                    "inverse".into(),
                    "similarity".into(),
                ]),
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-K" => self.k = value.parse().expect("validated"),
            "-W" => {
                self.weighting = match value {
                    "none" => DistanceWeighting::None,
                    "inverse" => DistanceWeighting::Inverse,
                    _ => DistanceWeighting::Similarity,
                }
            }
            _ => unreachable!("descriptor_for rejects unknown flags"),
        }
        Ok(())
    }

    fn get_option(&self, flag: &str) -> Result<String> {
        match flag {
            "-K" => Ok(self.k.to_string()),
            "-W" => Ok(match self.weighting {
                DistanceWeighting::None => "none",
                DistanceWeighting::Inverse => "inverse",
                DistanceWeighting::Similarity => "similarity",
            }
            .to_string()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for IBk {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_usize(self.k);
        w.put_u64(match self.weighting {
            DistanceWeighting::None => 0,
            DistanceWeighting::Inverse => 1,
            DistanceWeighting::Similarity => 2,
        });
        w.put_bool(self.trained);
        if self.trained {
            w.put_usize(self.class_index);
            w.put_usize(self.num_classes);
            // Rows travel in their encoded row-major form: the wire
            // format predates the columnar store and stays stable.
            w.put_usize(self.n_stored);
            for idx in 0..self.n_stored {
                w.put_f64_slice(&self.stored_row(idx));
            }
            w.put_usize_slice(&self.classes);
            w.put_usize(self.ranges.len());
            for range in &self.ranges {
                match range {
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
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.k = r.get_usize()?;
        self.weighting = match r.get_u64()? {
            0 => DistanceWeighting::None,
            1 => DistanceWeighting::Inverse,
            2 => DistanceWeighting::Similarity,
            tag => return Err(AlgoError::BadState(format!("bad weighting tag {tag}"))),
        };
        self.trained = r.get_bool()?;
        if self.trained {
            self.class_index = r.get_usize()?;
            self.num_classes = r.get_usize()?;
            let n = r.get_usize()?;
            let rows: Vec<Vec<f64>> = (0..n.min(1 << 24))
                .map(|_| r.get_f64_vec())
                .collect::<Result<_>>()?;
            self.classes = r.get_usize_vec()?;
            let nr = r.get_usize()?;
            self.ranges = (0..nr.min(1 << 16))
                .map(|_| -> Result<Option<(f64, f64)>> {
                    Ok(if r.get_bool()? {
                        Some((r.get_f64()?, r.get_f64()?))
                    } else {
                        None
                    })
                })
                .collect::<Result<_>>()?;
            let nn = r.get_usize()?;
            self.nominal = (0..nn.min(1 << 16))
                .map(|_| r.get_bool())
                .collect::<Result<_>>()?;
            // Rebuild the columnar store from the wire rows.
            self.store = self.empty_store();
            self.n_stored = 0;
            for row in &rows {
                if row.len() != self.nominal.len() {
                    return Err(AlgoError::BadState(format!(
                        "stored row has {} cells, header expects {}",
                        row.len(),
                        self.nominal.len()
                    )));
                }
                self.store_row(row);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{resubstitution_accuracy, separable_numeric, weather_nominal};
    use super::*;

    #[test]
    fn one_nn_memorises_training_data() {
        let ds = weather_nominal();
        let mut c = IBk::new();
        c.train(&ds).unwrap();
        assert_eq!(resubstitution_accuracy(&c, &ds), 1.0);
    }

    #[test]
    fn k3_on_separable_data() {
        let ds = separable_numeric(20);
        let mut c = IBk::with_k(3);
        c.train(&ds).unwrap();
        assert_eq!(resubstitution_accuracy(&c, &ds), 1.0);
    }

    #[test]
    fn inverse_weighting_votes() {
        let ds = separable_numeric(20);
        let mut c = IBk::with_k(5);
        c.set_option("-W", "inverse").unwrap();
        c.train(&ds).unwrap();
        assert_eq!(resubstitution_accuracy(&c, &ds), 1.0);
    }

    #[test]
    fn missing_values_maximal_distance() {
        let ds = weather_nominal();
        let mut c = IBk::new();
        c.train(&ds).unwrap();
        let mut q = ds.clone();
        for a in 0..4 {
            q.set_value(0, a, f64::NAN);
        }
        // All distances equal → first stored instance wins; should not
        // panic and must return a valid distribution.
        let d = c.distribution(&q, 0).unwrap();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn options_roundtrip() {
        let mut c = IBk::new();
        c.set_option("-K", "7").unwrap();
        assert_eq!(c.get_option("-K").unwrap(), "7");
        assert!(c.set_option("-K", "0").is_err());
        assert!(c.set_option("-W", "bogus").is_err());
    }

    #[test]
    fn state_roundtrip() {
        let ds = separable_numeric(10);
        let mut c = IBk::with_k(3);
        c.train(&ds).unwrap();
        let bytes = c.encode_state();
        let mut c2 = IBk::new();
        c2.decode_state(&bytes).unwrap();
        // The rebuilt columnar store re-encodes to the same bytes.
        assert_eq!(bytes, c2.encode_state());
        for r in 0..ds.num_instances() {
            assert_eq!(c.predict(&ds, r).unwrap(), c2.predict(&ds, r).unwrap());
        }
    }

    #[test]
    fn untrained_errors() {
        let ds = weather_nominal();
        assert!(IBk::new().distribution(&ds, 0).is_err());
    }

    /// Scalar row-at-a-time reference distance — the pre-columnar
    /// kernel, kept verbatim so the vectorized scan is pinned to it.
    fn reference_distance(c: &IBk, query: &[f64], stored: &[f64]) -> f64 {
        let mut d = 0.0;
        for a in 0..stored.len() {
            if a == c.class_index {
                continue;
            }
            let (q, s) = (query[a], stored[a]);
            let diff = if Value::is_missing(q) || Value::is_missing(s) {
                1.0
            } else if c.nominal[a] {
                if Value::as_index(q) == Value::as_index(s) {
                    0.0
                } else {
                    1.0
                }
            } else {
                match c.ranges[a] {
                    Some((min, max)) if max > min => {
                        let nq = ((q - min) / (max - min)).clamp(0.0, 1.0);
                        let ns = ((s - min) / (max - min)).clamp(0.0, 1.0);
                        nq - ns
                    }
                    _ => 0.0,
                }
            };
            d += diff * diff;
        }
        d.sqrt()
    }

    /// Reference k-selection: full stable sort by `(distance, index)`.
    fn full_sort_k_nearest(c: &IBk, query: &[f64], kk: usize) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = (0..c.n_stored)
            .map(|i| (reference_distance(c, query, &c.stored_row(i)), i))
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        all.truncate(kk);
        all
    }

    #[test]
    fn columnar_scan_bitwise_matches_row_reference() {
        // The columnar accumulation must reproduce the old row-wise
        // distance bit for bit, missing values and all.
        let ds = dm_data::corpus::breast_cancer();
        let mut c = IBk::new();
        c.train(&ds).unwrap();
        for r in (0..ds.num_instances()).step_by(13) {
            let query = ds.row_values(r);
            let plan = c.plan(&query);
            let scanned = c.scan_block(&plan, 0..c.n_stored);
            for (i, &d) in scanned.iter().enumerate() {
                let want = reference_distance(&c, &query, &c.stored_row(i));
                assert_eq!(d.to_bits(), want.to_bits(), "query {r} stored {i}");
            }
        }
    }

    #[test]
    fn bounded_heap_matches_full_sort() {
        let ds = dm_data::corpus::breast_cancer();
        for k in [1usize, 3, 7, 25] {
            let mut c = IBk::with_k(k);
            c.train(&ds).unwrap();
            let kk = k.min(c.n_stored);
            for r in (0..ds.num_instances()).step_by(29) {
                let query = ds.row_values(r);
                let heap: Vec<(f64, usize)> = c
                    .k_nearest(&query, kk)
                    .into_iter()
                    .map(|nb| (nb.d, nb.idx))
                    .collect();
                assert_eq!(heap, full_sort_k_nearest(&c, &query, kk), "k={k} row={r}");
            }
        }
    }

    #[test]
    fn breast_cancer_predictions_pinned_against_reference() {
        // The bounded-heap scan must leave predictions exactly where
        // the full-sort reference puts them, on the paper's case study.
        let ds = dm_data::corpus::breast_cancer();
        let mut c = IBk::with_k(5);
        c.train(&ds).unwrap();
        let ci = ds.class_index().unwrap();
        let mut correct = 0usize;
        for r in 0..ds.num_instances() {
            let kk = 5.min(c.n_stored);
            let reference = full_sort_k_nearest(&c, &ds.row_values(r), kk);
            let mut dist = vec![0.0; c.num_classes];
            for &(_, i) in &reference {
                dist[c.classes[i]] += 1.0;
            }
            let expected = crate::classifiers::argmax(&dist).unwrap();
            let got = c.predict(&ds, r).unwrap();
            assert_eq!(got, expected, "row {r}");
            if Value::as_index(ds.value(r, ci)) == got {
                correct += 1;
            }
        }
        // Absolute pin: 236 of 286 under the (distance, index) total
        // order. The old unstable selection landed on an arbitrary tie
        // subset at the k-boundary (230 on this corpus, where all-nominal
        // attributes make tied distances common); the bounded heap pins
        // the deterministic lowest-index tie-break instead.
        assert_eq!(correct, 236, "5-NN correct count moved");
    }

    #[test]
    fn parallel_scan_identical_to_serial() {
        // A store of three scan blocks (rows duplicated past the small
        // corpus), scored at several pool widths against 1 thread.
        let base = separable_numeric(40);
        let rows: Vec<usize> = (0..2098).map(|i| i % 40).collect();
        let big = base.select_rows(&rows);
        let mut c = IBk::with_k(9);
        c.set_option("-W", "inverse").unwrap();
        c.train(&big).unwrap();
        for r in (0..40).step_by(7) {
            let serial = crate::pool::with_threads(1, || c.distribution(&base, r).unwrap());
            for threads in [2, 8] {
                let pooled =
                    crate::pool::with_threads(threads, || c.distribution(&base, r).unwrap());
                let same = serial
                    .iter()
                    .zip(&pooled)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "threads={threads} row={r}");
            }
        }
    }
}
