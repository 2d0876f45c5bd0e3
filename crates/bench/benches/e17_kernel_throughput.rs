//! E17 — kernel throughput: the columnar mining kernels against
//! row-major baselines on the same data.
//!
//! Two hot kernels are measured, single-threaded so the comparison is
//! per-core work, not pool fan-out (E15 covers fan-out):
//!
//! * **IBk distance scan** — the columnar pre-normalised scan inside
//!   `IBk::predict` versus the pre-refactor row-at-a-time kernel
//!   (nested `Vec<Vec<f64>>` rows, per-cell NaN probes, per-comparison
//!   range normalisation), replicated here verbatim over a
//!   [`RowMajorDataset`] snapshot of the same training data.
//! * **k-means assignment** — `KMeans::assignments` (columnar
//!   projection, per-attribute accumulation) versus the scalar
//!   row-at-a-time assignment loop over the row-major snapshot.
//!
//! Baseline and columnar paths produce identical predictions /
//! assignment shapes; the IBk cross-check is asserted outright. The
//! acceptance floor (full mode only) is >= 1.5x single-thread speedup
//! on both kernels. Determinism is asserted at pool widths 1/2/8.
//!
//! `FAEHIM_E17_SMOKE=1` shrinks the workloads for CI smoke runs.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use dm_algorithms::classifiers::{Classifier, IBk};
use dm_algorithms::cluster::{Clusterer, KMeans};
use dm_algorithms::options::Configurable;
use dm_algorithms::pool;
use dm_bench::banner;
use dm_bench::row_major::{to_row_major, RowMajorDataset};
use dm_data::{Attribute, Dataset, Value};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0xFAE17;
const IBK_K: usize = 5;
const KMEANS_K: usize = 8;
const POOL_WIDTHS: [usize; 3] = [1, 2, 8];

fn smoke() -> bool {
    std::env::var("FAEHIM_E17_SMOKE").is_ok()
}

fn store_rows() -> usize {
    if smoke() {
        400
    } else {
        4000
    }
}

fn query_rows() -> usize {
    if smoke() {
        30
    } else {
        200
    }
}

fn kmeans_rows() -> usize {
    if smoke() {
        600
    } else {
        6000
    }
}

/// Mixed-type kernel workload: 10 numeric attributes, 2 nominal
/// attributes, a binary class, and ~3% missing cells in one numeric and
/// one nominal column (so the validity-bitmap paths are exercised
/// without disabling the all-valid fast path everywhere).
fn kernel_dataset(rows: usize) -> Dataset {
    let mut attrs: Vec<Attribute> = (0..10)
        .map(|i| Attribute::numeric(format!("x{i}")))
        .collect();
    attrs.push(Attribute::nominal("n0", ["a", "b", "c", "d"]));
    attrs.push(Attribute::nominal("n1", ["p", "q", "r"]));
    attrs.push(Attribute::nominal("class", ["neg", "pos"]));
    let mut ds = Dataset::new("e17", attrs);
    ds.set_class_index(Some(12)).unwrap();
    let mut state = SEED | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rows {
        let mut row = Vec::with_capacity(13);
        for a in 0..10 {
            let v = next();
            row.push(if a == 7 && v % 37 == 0 {
                f64::NAN
            } else {
                (v % 100_000) as f64 / 1000.0
            });
        }
        row.push((next() % 4) as f64);
        let v = next();
        row.push(if v % 37 == 0 {
            f64::NAN
        } else {
            (v % 3) as f64
        });
        row.push((next() % 2) as f64);
        ds.push_row(row).unwrap();
    }
    ds
}

/// Median-of-3 wall-clock under a 1-thread pool (per-core comparison).
fn timed<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            pool::with_threads(1, || {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

// ---------------------------------------------------------------------
// Row-major baseline: the pre-columnar IBk kernel, verbatim.
// ---------------------------------------------------------------------

/// Distance metadata the old kernel carried: per-attribute ranges,
/// nominal flags, and the class index to skip.
struct BaselineSpace {
    ranges: Vec<Option<(f64, f64)>>,
    nominal: Vec<bool>,
    class_index: usize,
}

fn fit_baseline_space(rm: &RowMajorDataset) -> BaselineSpace {
    let n_attrs = rm.attributes.len();
    let mut ranges = Vec::with_capacity(n_attrs);
    for a in 0..n_attrs {
        if !rm.attributes[a].is_numeric() {
            ranges.push(None);
            continue;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in &rm.rows {
            let v = row[a];
            if !Value::is_missing(v) {
                min = min.min(v);
                max = max.max(v);
            }
        }
        ranges.push((min <= max).then_some((min, max)));
    }
    BaselineSpace {
        ranges,
        nominal: rm.attributes.iter().map(|a| a.is_nominal()).collect(),
        class_index: rm.class_index.expect("class set"),
    }
}

/// The pre-refactor row-at-a-time heterogeneous distance: per-cell NaN
/// probes, branch on attribute kind, and normalisation of *both* sides
/// at every comparison.
fn baseline_distance(space: &BaselineSpace, query: &[f64], stored: &[f64]) -> f64 {
    let mut d = 0.0;
    for a in 0..stored.len() {
        if a == space.class_index {
            continue;
        }
        let (q, s) = (query[a], stored[a]);
        let diff = if Value::is_missing(q) || Value::is_missing(s) {
            1.0
        } else if space.nominal[a] {
            f64::from(Value::as_index(q) != Value::as_index(s))
        } else {
            match space.ranges[a] {
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

/// Baseline k-NN prediction: scan every stored row, bounded insertion
/// selection over the `(distance, index)` total order, majority vote —
/// the old predict path end to end.
fn baseline_predict(
    space: &BaselineSpace,
    rm: &RowMajorDataset,
    classes: &[usize],
    num_classes: usize,
    query: &[f64],
    k: usize,
) -> usize {
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    for (i, stored) in rm.rows.iter().enumerate() {
        let cand = (baseline_distance(space, query, stored), i);
        if best.len() < k || cand < best[best.len() - 1] {
            let pos = best.partition_point(|x| *x < cand);
            best.insert(pos, cand);
            best.truncate(k);
        }
    }
    let mut dist = vec![0.0f64; num_classes];
    for &(_, i) in &best {
        dist[classes[i]] += 1.0;
    }
    dist.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

/// Baseline k-means assignment: scalar per-row, per-centroid distance
/// with both sides normalised at each cell — the pre-columnar
/// `nearest` loop over row-major rows.
fn baseline_assign(
    space: &BaselineSpace,
    rm: &RowMajorDataset,
    centroids: &[Vec<f64>],
) -> Vec<usize> {
    rm.rows
        .iter()
        .map(|row| {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, centroid) in centroids.iter().enumerate() {
                let mut d = 0.0;
                for (a, &cv) in centroid.iter().enumerate() {
                    // Skip the class column and string attributes, as
                    // the clusterer's distance space does.
                    if a == space.class_index
                        || (!rm.attributes[a].is_numeric() && !space.nominal[a])
                    {
                        continue;
                    }
                    let v = row[a];
                    let diff = if Value::is_missing(v) || Value::is_missing(cv) {
                        1.0
                    } else if space.nominal[a] {
                        f64::from(Value::as_index(v) != Value::as_index(cv))
                    } else {
                        match space.ranges[a] {
                            Some((min, max)) if max > min => {
                                let nv = ((v - min) / (max - min)).clamp(0.0, 1.0);
                                let nc = ((cv - min) / (max - min)).clamp(0.0, 1.0);
                                nv - nc
                            }
                            _ => 0.0,
                        }
                    };
                    d += diff * diff;
                }
                let d = d.sqrt();
                if d < best_d {
                    best_d = d;
                    best = ci;
                }
            }
            best
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    banner(
        "E17",
        "kernel throughput: columnar IBk scan and k-means assignment vs row-major baselines",
    );
    println!(
        "mode: {} (store {} rows, {} queries; k-means {} rows, k={})",
        if smoke() { "smoke" } else { "full" },
        store_rows(),
        query_rows(),
        kmeans_rows(),
        KMEANS_K
    );

    // --- IBk distance scan. ------------------------------------------
    let ds = kernel_dataset(store_rows());
    let rm = to_row_major(&ds);
    let space = fit_baseline_space(&rm);
    let classes: Vec<usize> = rm.rows.iter().map(|r| r[12] as usize).collect();

    let mut ibk = IBk::with_k(IBK_K);
    pool::with_threads(1, || ibk.train(&ds)).unwrap();

    let q = query_rows();
    let columnar_preds: Vec<usize> =
        pool::with_threads(1, || (0..q).map(|r| ibk.predict(&ds, r).unwrap()).collect());
    let baseline_preds: Vec<usize> = (0..q)
        .map(|r| baseline_predict(&space, &rm, &classes, 2, &rm.rows[r], IBK_K))
        .collect();
    assert_eq!(
        columnar_preds, baseline_preds,
        "columnar and row-major IBk predictions diverged"
    );

    let t_col_ibk = timed(|| (0..q).map(|r| ibk.predict(&ds, r).unwrap()).sum::<usize>());
    let t_row_ibk = timed(|| {
        (0..q)
            .map(|r| baseline_predict(&space, &rm, &classes, 2, &rm.rows[r], IBK_K))
            .sum::<usize>()
    });
    let ibk_speedup = t_row_ibk / t_col_ibk;
    let scans = (q * store_rows()) as f64;
    println!("IBk scan ({} queries x {} stored rows):", q, store_rows());
    println!(
        "  row-major baseline: {:.1} ms ({:.1} Mdist/s)",
        t_row_ibk * 1e3,
        scans / t_row_ibk / 1e6
    );
    println!(
        "  columnar:           {:.1} ms ({:.1} Mdist/s)",
        t_col_ibk * 1e3,
        scans / t_col_ibk / 1e6
    );
    println!("  single-thread speedup: {ibk_speedup:.2}x");

    // Determinism across pool widths: byte-identical distributions.
    let ref_dists: Vec<Vec<f64>> = pool::with_threads(1, || {
        (0..q.min(16))
            .map(|r| ibk.distribution(&ds, r).unwrap())
            .collect()
    });
    for &w in &POOL_WIDTHS[1..] {
        let dists: Vec<Vec<f64>> = pool::with_threads(w, || {
            (0..q.min(16))
                .map(|r| ibk.distribution(&ds, r).unwrap())
                .collect()
        });
        let same = ref_dists
            .iter()
            .zip(&dists)
            .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(same, "IBk distributions diverged at pool width {w}");
    }

    // --- k-means assignment. -----------------------------------------
    let kds = kernel_dataset(kmeans_rows());
    let krm = to_row_major(&kds);
    let kspace = fit_baseline_space(&krm);
    let mut km = KMeans::with_k(KMEANS_K);
    km.set_option("-S", &SEED.to_string()).unwrap();
    pool::with_threads(1, || km.build(&kds)).unwrap();

    // Shape-representative centroids for the baseline: k spread rows.
    // Assignment cost depends on shapes (rows x centroids x attrs),
    // not centroid values, so the baseline measures the same work.
    let n = krm.rows.len();
    let centroids: Vec<Vec<f64>> = (0..KMEANS_K)
        .map(|i| krm.rows[i * n / KMEANS_K].clone())
        .collect();

    let t_col_km = timed(|| km.assignments(&kds).unwrap().len());
    let t_row_km = timed(|| baseline_assign(&kspace, &krm, &centroids).len());
    let km_speedup = t_row_km / t_col_km;
    let evals = (n * KMEANS_K) as f64;
    println!("k-means assignment ({n} rows x {KMEANS_K} centroids):");
    println!(
        "  row-major baseline: {:.1} ms ({:.1} Mdist/s)",
        t_row_km * 1e3,
        evals / t_row_km / 1e6
    );
    println!(
        "  columnar:           {:.1} ms ({:.1} Mdist/s)",
        t_col_km * 1e3,
        evals / t_col_km / 1e6
    );
    println!("  single-thread speedup: {km_speedup:.2}x");

    // Determinism across pool widths: identical assignment vectors.
    let ref_assign = pool::with_threads(1, || km.assignments(&kds).unwrap());
    for &w in &POOL_WIDTHS[1..] {
        let assign = pool::with_threads(w, || km.assignments(&kds).unwrap());
        assert_eq!(assign, ref_assign, "assignments diverged at pool width {w}");
    }
    println!(
        "determinism: IBk distributions and k-means assignments identical at pool widths {POOL_WIDTHS:?}"
    );

    // Acceptance floor: >= 1.5x per-thread on both kernels (full mode;
    // smoke workloads are too small for stable ratios).
    if !smoke() {
        assert!(
            ibk_speedup >= 1.5,
            "IBk columnar speedup only {ibk_speedup:.2}x (floor 1.5x)"
        );
        assert!(
            km_speedup >= 1.5,
            "k-means columnar speedup only {km_speedup:.2}x (floor 1.5x)"
        );
    }

    let mut group = c.benchmark_group("e17_kernel_throughput");
    group.bench_function("ibk_scan_columnar", |b| {
        b.iter(|| {
            pool::with_threads(1, || {
                (0..q.min(20))
                    .map(|r| ibk.predict(&ds, r).unwrap())
                    .sum::<usize>()
            })
        })
    });
    group.bench_function("ibk_scan_row_major", |b| {
        b.iter(|| {
            (0..q.min(20))
                .map(|r| baseline_predict(&space, &rm, &classes, 2, &rm.rows[r], IBK_K))
                .sum::<usize>()
        })
    });
    group.bench_function("kmeans_assign_columnar", |b| {
        b.iter(|| pool::with_threads(1, || km.assignments(&kds).unwrap().len()))
    });
    group.bench_function("kmeans_assign_row_major", |b| {
        b.iter(|| baseline_assign(&kspace, &krm, &centroids).len())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
