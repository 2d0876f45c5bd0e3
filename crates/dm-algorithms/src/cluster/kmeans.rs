//! SimpleKMeans: Lloyd's algorithm over the mixed-type distance space
//! (numeric attributes range-normalised, nominal attributes by mode).

use super::{check_clusterable, Clusterer, DistanceSpace};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::pool;
use crate::state::{StateReader, StateWriter, Stateful};
use dm_data::{Bitmap, CodesView, Dataset, Value};

#[cfg(test)]
mod reference;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A columnar projection of the dataset into the distance space:
/// numeric attributes pre-normalised (same `norm` expression the
/// scalar path applies per cell), nominal codes and validity bitmaps
/// borrowed zero-copy from the dataset. Built once per `build` (and
/// once per `assignments` call) and shared by the k-means++ seeding,
/// every Lloyd iteration's scan and every recentring.
enum ProjCol<'a> {
    /// Class or string attribute — contributes nothing.
    Skip,
    /// Numeric attribute: pre-normalised values (0.0 at missing cells —
    /// also the value `norm` yields for degenerate ranges).
    Numeric { norm: Vec<f64>, valid: &'a Bitmap },
    /// Nominal attribute: dense codes, borrowed.
    Nominal {
        codes: CodesView<'a>,
        valid: &'a Bitmap,
    },
}

struct Projection<'a> {
    cols: Vec<ProjCol<'a>>,
}

impl<'a> Projection<'a> {
    /// Build the projection, or `None` when the fitted space disagrees
    /// with the dataset header (then the caller falls back to the
    /// scalar per-row path, which reproduces the legacy behaviour for
    /// mismatched state exactly).
    fn build(space: &DistanceSpace, data: &'a Dataset) -> Option<Projection<'a>> {
        if space.skip.len() != data.num_attributes() {
            return None;
        }
        let mut cols = Vec::with_capacity(space.skip.len());
        for a in 0..space.skip.len() {
            if space.skip[a] {
                cols.push(ProjCol::Skip);
            } else if space.nominal[a] {
                let (codes, valid) = data.column(a).nominal()?;
                cols.push(ProjCol::Nominal { codes, valid });
            } else {
                let (values, valid) = data.column(a).numeric()?;
                let norm = values
                    .iter()
                    .enumerate()
                    .map(|(r, &v)| if valid.get(r) { space.norm(a, v) } else { 0.0 })
                    .collect();
                cols.push(ProjCol::Numeric { norm, valid });
            }
        }
        Some(Projection { cols })
    }

    /// Row `r` as a seed centroid: its normalised numeric values and
    /// its nominal codes, with `0.0` for skipped attributes and missing
    /// cells.
    fn encode_row(&self, r: usize) -> Vec<f64> {
        self.cols
            .iter()
            .map(|col| match col {
                ProjCol::Skip => 0.0,
                ProjCol::Numeric { norm, valid } => {
                    if valid.get(r) {
                        norm[r]
                    } else {
                        0.0
                    }
                }
                ProjCol::Nominal { codes, valid } => {
                    if valid.get(r) {
                        codes.get(r) as f64
                    } else {
                        0.0
                    }
                }
            })
            .collect()
    }

    /// Add each row of `range`'s squared differences from `centroid`
    /// to its slot of `dist`, attribute by attribute: per row, the
    /// exact floating-point sequence of
    /// `DistanceSpace::distance_to_centroid` before its square root.
    fn accumulate(&self, centroid: &[f64], range: std::ops::Range<usize>, dist: &mut [f64]) {
        let start = range.start;
        for (a, &cv) in centroid.iter().enumerate() {
            match &self.cols[a] {
                ProjCol::Skip => {}
                ProjCol::Numeric { norm, valid } => {
                    if Value::is_missing(cv) {
                        for d in dist.iter_mut() {
                            *d += 1.0;
                        }
                    } else {
                        let col = &norm[range.clone()];
                        if valid.all_valid() {
                            for (d, &nv) in dist.iter_mut().zip(col) {
                                let diff = nv - cv;
                                *d += diff * diff;
                            }
                        } else {
                            for (i, (d, &nv)) in dist.iter_mut().zip(col).enumerate() {
                                if valid.get(start + i) {
                                    let diff = nv - cv;
                                    *d += diff * diff;
                                } else {
                                    *d += 1.0;
                                }
                            }
                        }
                    }
                }
                ProjCol::Nominal { codes, valid } => {
                    if Value::is_missing(cv) {
                        for d in dist.iter_mut() {
                            *d += 1.0;
                        }
                    } else {
                        let cc = Value::as_index(cv);
                        let range = range.clone();
                        match codes {
                            CodesView::U8(codes) => {
                                mismatches(&codes[range], valid, start, cc, dist)
                            }
                            CodesView::U16(codes) => {
                                mismatches(&codes[range], valid, start, cc, dist)
                            }
                            CodesView::U32(codes) => {
                                mismatches(&codes[range], valid, start, cc, dist)
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every row's squared distance to `centroid` as k-means++ seeding
    /// weighs it: the square of the rounded distance
    /// `distance_to_centroid` returns, not the raw sum.
    fn seed_weights(&self, centroid: &[f64], rows: usize) -> Vec<f64> {
        pool::scan_rows(rows, |range| {
            let mut dist = vec![0.0f64; range.len()];
            self.accumulate(centroid, range, &mut dist);
            for d in &mut dist {
                let root = d.sqrt();
                *d = root * root;
            }
            dist
        })
    }
}

/// Add 1.0 to each row's slot of `dist` where its code differs from
/// `cc` or is missing, and 0.0 where it matches; `codes` holds the rows
/// from `start` on. Matching on the code width once per column, not per
/// cell, leaves a loop over one slice.
fn mismatches<C: Copy + Into<u32>>(
    codes: &[C],
    valid: &Bitmap,
    start: usize,
    cc: usize,
    dist: &mut [f64],
) {
    if valid.all_valid() {
        for (d, &code) in dist.iter_mut().zip(codes) {
            *d += f64::from(code.into() as usize != cc);
        }
    } else {
        for (i, (d, &code)) in dist.iter_mut().zip(codes).enumerate() {
            *d += f64::from(!valid.get(start + i) || code.into() as usize != cc);
        }
    }
}

/// The k-means clusterer.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `-N`: number of clusters.
    k: usize,
    /// `-I`: maximum Lloyd iterations.
    max_iterations: usize,
    /// `-S`: RNG seed for centroid initialisation.
    seed: u64,
    space: DistanceSpace,
    /// Normalised centroids: `centroids[c][attr]`.
    centroids: Vec<Vec<f64>>,
    /// Training-set cluster sizes.
    sizes: Vec<usize>,
    /// Iterations actually performed.
    iterations_run: usize,
    built: bool,
}

impl Default for KMeans {
    fn default() -> Self {
        KMeans {
            k: 2,
            max_iterations: 100,
            seed: 10,
            space: DistanceSpace::default(),
            centroids: Vec::new(),
            sizes: Vec::new(),
            iterations_run: 0,
            built: false,
        }
    }
}

impl KMeans {
    /// Create a 2-cluster k-means (WEKA default).
    pub fn new() -> KMeans {
        KMeans::default()
    }

    /// Create with an explicit cluster count.
    pub fn with_k(k: usize) -> KMeans {
        KMeans {
            k: k.max(1),
            ..KMeans::default()
        }
    }

    /// Cluster assignments for every row of `data`. Rows are scored in
    /// blocks on the pool; each assignment is an independent argmin, so
    /// the result is identical at any thread count, and identical to
    /// [`Clusterer::cluster_instance`] on each row.
    pub fn assignments(&self, data: &Dataset) -> Result<Vec<usize>> {
        if !self.built {
            return Err(AlgoError::NotTrained);
        }
        // The scalar per-row path serves a dataset whose header the
        // fitted space does not match.
        Ok(match Projection::build(&self.space, data) {
            Some(proj) => self.assign(&proj, data.num_instances()),
            None => pool::parallel_map(data.num_instances(), |r| self.nearest(data, r)),
        })
    }

    /// The Lloyd assignment step: nearest centroid per row, via the
    /// vectorized columnar scan.
    fn assign(&self, proj: &Projection<'_>, rows: usize) -> Vec<usize> {
        pool::scan_rows(rows, |range| self.assign_block(proj, range))
    }

    /// Columnar assignment for one contiguous row block: for each
    /// centroid, accumulate squared diffs attribute by attribute into
    /// per-row accumulators, take the square root, and fold a strict-<
    /// argmin in centroid order. Per row this performs the exact FP
    /// operation sequence of `DistanceSpace::distance_to_centroid`
    /// followed by `nearest`'s comparison, so assignments are
    /// bit-identical to the scalar path (square roots are compared, not
    /// squared distances — distinct d² can round to equal √d², which
    /// would otherwise flip first-wins ties).
    fn assign_block(&self, proj: &Projection<'_>, range: std::ops::Range<usize>) -> Vec<usize> {
        let len = range.len();
        let mut best = vec![0usize; len];
        let mut best_d = vec![f64::INFINITY; len];
        let mut dist = vec![0.0f64; len];
        for (c, centroid) in self.centroids.iter().enumerate() {
            dist.fill(0.0);
            proj.accumulate(centroid, range.clone(), &mut dist);
            for (i, d) in dist.iter().enumerate() {
                let d = d.sqrt();
                if d < best_d[i] {
                    best_d[i] = d;
                    best[i] = c;
                }
            }
        }
        best
    }

    fn nearest(&self, data: &Dataset, row: usize) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in self.centroids.iter().enumerate() {
            let d = self.space.distance_to_centroid(data, row, centroid);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Move every centroid that has members to their centre, one
    /// attribute at a time over the projection: a numeric attribute's
    /// mean normalised value (summed in row order, over members with a
    /// value), a nominal one's mode (the last of equally frequent
    /// labels), `0.0` for a skipped one. A centroid without members
    /// stays where it is.
    fn recentre(&mut self, proj: &Projection<'_>, data: &Dataset, assign: &[usize]) {
        let k = self.centroids.len();
        let mut members = vec![0usize; k];
        for &c in assign {
            members[c] += 1;
        }
        let mut centre = vec![0.0f64; k];
        let mut counts = vec![0.0f64; k];
        let mut labels = Vec::new();
        for (a, col) in proj.cols.iter().enumerate() {
            match col {
                ProjCol::Skip => centre.fill(0.0),
                ProjCol::Numeric { norm, valid } => {
                    centre.fill(0.0);
                    counts.fill(0.0);
                    for (r, &c) in assign.iter().enumerate() {
                        if valid.get(r) {
                            centre[c] += norm[r];
                            counts[c] += 1.0;
                        }
                    }
                    for (sum, &n) in centre.iter_mut().zip(&counts) {
                        *sum = if n > 0.0 { *sum / n } else { 0.0 };
                    }
                }
                ProjCol::Nominal { codes, valid } => {
                    let arity = data.attributes()[a].num_labels();
                    labels.clear();
                    labels.resize(k * arity, 0usize);
                    for (r, &c) in assign.iter().enumerate() {
                        if valid.get(r) {
                            labels[c * arity + codes.get(r)] += 1;
                        }
                    }
                    for (c, mode) in centre.iter_mut().enumerate() {
                        let label = labels[c * arity..(c + 1) * arity]
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &n)| n)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        *mode = Value::from_index(label);
                    }
                }
            }
            for (c, centroid) in self.centroids.iter_mut().enumerate() {
                if members[c] > 0 {
                    centroid[a] = centre[c];
                }
            }
        }
    }
}

impl Clusterer for KMeans {
    fn name(&self) -> &'static str {
        "SimpleKMeans"
    }

    fn build(&mut self, data: &Dataset) -> Result<()> {
        check_clusterable(data)?;
        if self.k > data.num_instances() {
            return Err(AlgoError::Unsupported(format!(
                "k = {} exceeds {} instances",
                self.k,
                data.num_instances()
            )));
        }
        self.space = DistanceSpace::fit(data);
        let proj =
            Projection::build(&self.space, data).expect("a space fitted to a dataset projects it");

        // k-means++ seeding: first centroid uniform, each subsequent one
        // drawn with probability proportional to the squared distance to
        // the nearest centroid chosen so far (avoids the classic bad
        // initialisation of two seeds landing in one cluster).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = data.num_instances();
        let first = rng.random_range(0..n);
        self.centroids = vec![proj.encode_row(first)];
        let mut nearest_sq = proj.seed_weights(&self.centroids[0], n);
        while self.centroids.len() < self.k {
            let total: f64 = nearest_sq.iter().sum();
            let pick = if total <= 0.0 {
                rng.random_range(0..n)
            } else {
                let mut target = rng.random_range(0.0..total);
                let mut chosen = n - 1;
                for (r, &d2) in nearest_sq.iter().enumerate() {
                    if target < d2 {
                        chosen = r;
                        break;
                    }
                    target -= d2;
                }
                chosen
            };
            let centroid = proj.encode_row(pick);
            for (slot, d2) in nearest_sq.iter_mut().zip(proj.seed_weights(&centroid, n)) {
                *slot = slot.min(d2);
            }
            self.centroids.push(centroid);
        }
        self.built = true;

        let mut assign = vec![usize::MAX; n];
        self.iterations_run = 0;
        for _ in 0..self.max_iterations {
            self.iterations_run += 1;
            // Parallel assignment step; recentring below stays serial
            // (it folds member rows in row order).
            let next = self.assign(&proj, n);
            let mut changed = false;
            for (r, &c) in next.iter().enumerate() {
                if assign[r] != c {
                    assign[r] = c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            self.recentre(&proj, data, &assign);
        }
        self.sizes = {
            let mut s = vec![0usize; self.k];
            for &c in &assign {
                s[c] += 1;
            }
            s
        };
        Ok(())
    }

    fn cluster_instance(&self, data: &Dataset, row: usize) -> Result<usize> {
        if !self.built {
            return Err(AlgoError::NotTrained);
        }
        Ok(self.nearest(data, row))
    }

    fn assignments(&self, data: &Dataset) -> Result<Vec<usize>> {
        KMeans::assignments(self, data)
    }

    fn num_clusters(&self) -> Result<usize> {
        if !self.built {
            return Err(AlgoError::NotTrained);
        }
        Ok(self.k)
    }

    fn describe(&self) -> String {
        if !self.built {
            return "SimpleKMeans: not built".to_string();
        }
        let mut out = format!(
            "kMeans\n======\nNumber of clusters: {}\nIterations: {}\n",
            self.k, self.iterations_run
        );
        for (c, size) in self.sizes.iter().enumerate() {
            out.push_str(&format!("Cluster {c}: {size} instances\n"));
        }
        out
    }
}

impl Configurable for KMeans {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-N",
                name: "numClusters",
                description: "number of clusters",
                default: "2".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 100_000,
                },
            },
            OptionDescriptor {
                flag: "-I",
                name: "maxIterations",
                description: "maximum Lloyd iterations",
                default: "100".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 1_000_000,
                },
            },
            OptionDescriptor {
                flag: "-S",
                name: "seed",
                description: "random seed for centroid initialisation",
                default: "10".into(),
                kind: OptionKind::Integer {
                    min: 0,
                    max: i64::MAX,
                },
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-N" => self.k = value.parse().expect("validated"),
            "-I" => self.max_iterations = value.parse().expect("validated"),
            "-S" => self.seed = value.parse().expect("validated"),
            _ => unreachable!("descriptor_for rejects unknown flags"),
        }
        Ok(())
    }

    fn get_option(&self, flag: &str) -> Result<String> {
        match flag {
            "-N" => Ok(self.k.to_string()),
            "-I" => Ok(self.max_iterations.to_string()),
            "-S" => Ok(self.seed.to_string()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for KMeans {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_usize(self.k);
        w.put_usize(self.max_iterations);
        w.put_u64(self.seed);
        w.put_bool(self.built);
        if self.built {
            self.space.encode(&mut w);
            w.put_usize(self.centroids.len());
            for c in &self.centroids {
                w.put_f64_slice(c);
            }
            w.put_usize_slice(&self.sizes);
            w.put_usize(self.iterations_run);
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.k = r.get_usize()?;
        self.max_iterations = r.get_usize()?;
        self.seed = r.get_u64()?;
        self.built = r.get_bool()?;
        if self.built {
            self.space = DistanceSpace::decode(&mut r)?;
            let n = r.get_usize()?;
            if n > 1 << 20 {
                return Err(AlgoError::BadState("absurd centroid count".into()));
            }
            self.centroids = (0..n).map(|_| r.get_f64_vec()).collect::<Result<_>>()?;
            self.sizes = r.get_usize_vec()?;
            self.iterations_run = r.get_usize()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{rand_index, three_blobs};
    use super::*;

    #[test]
    fn recovers_three_blobs() {
        let ds = three_blobs();
        let mut km = KMeans::with_k(3);
        km.build(&ds).unwrap();
        let assign = km.assignments(&ds).unwrap();
        let ri = rand_index(&ds, &assign);
        assert!(ri > 0.95, "rand index {ri}");
        assert_eq!(km.num_clusters().unwrap(), 3);
    }

    #[test]
    fn converges_before_max_iterations() {
        let ds = three_blobs();
        let mut km = KMeans::with_k(3);
        km.build(&ds).unwrap();
        assert!(km.iterations_run < 100);
    }

    #[test]
    fn k_larger_than_data_rejected() {
        let ds = three_blobs();
        let mut km = KMeans::with_k(1000);
        assert!(km.build(&ds).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = three_blobs();
        let mut a = KMeans::with_k(3);
        a.build(&ds).unwrap();
        let mut b = KMeans::with_k(3);
        b.build(&ds).unwrap();
        assert_eq!(a.assignments(&ds).unwrap(), b.assignments(&ds).unwrap());
    }

    #[test]
    fn state_roundtrip() {
        let ds = three_blobs();
        let mut km = KMeans::with_k(3);
        km.build(&ds).unwrap();
        let mut km2 = KMeans::new();
        km2.decode_state(&km.encode_state()).unwrap();
        assert_eq!(km.assignments(&ds).unwrap(), km2.assignments(&ds).unwrap());
    }

    #[test]
    fn unbuilt_errors() {
        let ds = three_blobs();
        assert!(KMeans::new().cluster_instance(&ds, 0).is_err());
        assert!(KMeans::new().num_clusters().is_err());
    }

    #[test]
    fn columnar_assignment_matches_scalar_nearest() {
        // The vectorized block scan must agree with the per-row scalar
        // argmin on mixed nominal data with missing cells, at every
        // pool width, including a scan of several blocks.
        let base = dm_data::corpus::breast_cancer();
        let mut km = KMeans::with_k(4);
        km.build(&base).unwrap();
        let scalar: Vec<usize> = (0..base.num_instances())
            .map(|r| km.nearest(&base, r))
            .collect();
        assert_eq!(km.assignments(&base).unwrap(), scalar);
        // Duplicate rows to make the scan three blocks.
        let rows: Vec<usize> = (0..2085).map(|i| i % base.num_instances()).collect();
        let big = base.select_rows(&rows);
        let scalar_big: Vec<usize> = (0..big.num_instances())
            .map(|r| km.nearest(&big, r))
            .collect();
        for threads in [1usize, 2, 8] {
            let pooled = crate::pool::with_threads(threads, || km.assignments(&big).unwrap());
            assert_eq!(pooled, scalar_big, "threads={threads}");
        }
    }

    #[test]
    fn describe_reports_sizes() {
        let ds = three_blobs();
        let mut km = KMeans::with_k(3);
        km.build(&ds).unwrap();
        let text = km.describe();
        assert!(text.contains("Number of clusters: 3"));
        assert!(text.contains("Cluster 0"));
    }
}
