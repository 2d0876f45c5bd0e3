//! Synthetic dataset families for the clustering and association-rule
//! services and for the scaling benchmarks (E8, E10).

use crate::attribute::Attribute;
use crate::dataset::{Dataset, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Specification of one Gaussian cluster for [`gaussian_blobs`].
#[derive(Debug, Clone)]
pub struct BlobSpec {
    /// Cluster centre, one coordinate per numeric attribute.
    pub center: Vec<f64>,
    /// Isotropic standard deviation.
    pub stddev: f64,
    /// Number of points drawn from this blob.
    pub count: usize,
}

/// Generate a numeric dataset of isotropic Gaussian blobs, with a
/// nominal `cluster` attribute recording the generating blob (set as
/// the class so clustering output can be scored against ground truth).
pub fn gaussian_blobs(blobs: &[BlobSpec], seed: u64) -> Dataset {
    let dims = blobs.first().map_or(0, |b| b.center.len());
    let mut attributes: Vec<Attribute> = (0..dims)
        .map(|d| Attribute::numeric(format!("x{d}")))
        .collect();
    attributes.push(Attribute::nominal(
        "cluster",
        (0..blobs.len()).map(|i| format!("c{i}")),
    ));
    let mut ds = Dataset::new("gaussian-blobs", attributes);
    ds.set_class_index(Some(dims)).expect("class in range");

    let mut rng = StdRng::seed_from_u64(seed);
    for (b, blob) in blobs.iter().enumerate() {
        assert_eq!(
            blob.center.len(),
            dims,
            "all blobs must share dimensionality"
        );
        for _ in 0..blob.count {
            let mut row: Vec<f64> = blob
                .center
                .iter()
                .map(|&c| c + blob.stddev * gaussian(&mut rng))
                .collect();
            row.push(Value::from_index(b));
            ds.push_row(row).expect("row arity matches header");
        }
    }
    ds
}

/// Standard normal via Box–Muller (avoids needing rand_distr).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generate market-basket transactions for association-rule mining: a
/// binary dataset with one yes/no attribute per item. `patterns` are
/// itemsets planted with the given probability; remaining items fire
/// independently with `noise` probability.
pub fn market_baskets(
    num_items: usize,
    num_transactions: usize,
    patterns: &[(&[usize], f64)],
    noise: f64,
    seed: u64,
) -> Dataset {
    let attributes: Vec<Attribute> = (0..num_items)
        .map(|i| Attribute::nominal(format!("item{i}"), ["n", "y"]))
        .collect();
    let mut ds = Dataset::new("baskets", attributes);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..num_transactions {
        let mut row = vec![0.0f64; num_items];
        for &(items, p) in patterns {
            if rng.random_bool(p) {
                for &i in items {
                    row[i] = 1.0;
                }
            }
        }
        for cell in row.iter_mut() {
            if *cell == 0.0 && rng.random_bool(noise) {
                *cell = 1.0;
            }
        }
        ds.push_row(row).expect("row arity matches header");
    }
    ds
}

/// Generate a large nominal classification dataset: `num_attrs` nominal
/// attributes with `arity` labels each, a nominal class with `classes`
/// labels, and a planted dependency — the class is a noisy function of
/// the first two attributes. Used by the scaling benches where the
/// 286-row case-study set is too small.
pub fn nominal_classification(
    num_rows: usize,
    num_attrs: usize,
    arity: usize,
    classes: usize,
    noise: f64,
    seed: u64,
) -> Dataset {
    assert!(num_attrs >= 2, "need at least two predictive attributes");
    assert!(arity >= 2 && classes >= 2);
    let mut attributes: Vec<Attribute> = (0..num_attrs)
        .map(|a| Attribute::nominal(format!("a{a}"), (0..arity).map(|v| format!("v{v}"))))
        .collect();
    attributes.push(Attribute::nominal(
        "class",
        (0..classes).map(|c| format!("k{c}")),
    ));
    let mut ds = Dataset::new("nominal-synthetic", attributes);
    ds.set_class_index(Some(num_attrs)).expect("class in range");

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..num_rows {
        let mut row: Vec<f64> = (0..num_attrs)
            .map(|_| Value::from_index(rng.random_range(0..arity)))
            .collect();
        let signal = (Value::as_index(row[0]) + Value::as_index(row[1])) % classes;
        let label = if rng.random_bool(noise) {
            rng.random_range(0..classes)
        } else {
            signal
        };
        row.push(Value::from_index(label));
        ds.push_row(row).expect("row arity matches header");
    }
    ds
}

/// A seeded dataset holding the corners a column-wise kernel must
/// treat as its row-wise predecessor did: 0 to 300 rows; numeric
/// columns drawn from a grid that holds `-0.0` beside `0.0`, from a
/// continuum, or constant; nominal domains of 1 to 300 labels; cells
/// missing at up to 30 %; fractional and zero weights, some of whose
/// sums round, so that the order of additions shows; and a class that
/// is the last (nominal) attribute, another attribute, or unset. No
/// string attributes. The differential tests of the dataset kernels
/// run over it.
pub fn irregular(seed: u64) -> Dataset {
    const GRID: [f64; 7] = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0];
    enum Cells {
        Nominal(usize),
        Grid,
        Continuum,
        Constant(f64),
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = [0, 1, 2, 7, 40, 150, 300][rng.random_range(0..7usize)];
    let missing = [0.0, 0.05, 0.3][rng.random_range(0..3usize)];
    let weighted = rng.random_bool(0.5);
    let n_attrs = 1 + rng.random_range(0..6usize);
    let mut attributes = Vec::new();
    let mut cells = Vec::new();
    for a in 0..n_attrs {
        let kind = match rng.random_range(0..5usize) {
            0 | 1 => Cells::Nominal([1, 2, 3, 7, 64, 65, 300][rng.random_range(0..7usize)]),
            2 => Cells::Grid,
            3 => Cells::Continuum,
            _ => Cells::Constant(GRID[rng.random_range(0..GRID.len())]),
        };
        attributes.push(match kind {
            Cells::Nominal(arity) => {
                Attribute::nominal(format!("n{a}"), (0..arity).map(|l| format!("v{l}")))
            }
            _ => Attribute::numeric(format!("x{a}")),
        });
        cells.push(kind);
    }
    let k = 1 + rng.random_range(0..4usize);
    attributes.push(Attribute::nominal("class", (0..k).map(|c| format!("c{c}"))));
    let mut ds = Dataset::new(format!("irregular-{seed}"), attributes);
    let class = match rng.random_range(0..5usize) {
        0 => None,
        1 => Some(rng.random_range(0..n_attrs)),
        _ => Some(n_attrs),
    };
    ds.set_class_index(class).expect("class in range");
    for _ in 0..rows {
        let mut score = 0.0f64;
        let mut row: Vec<f64> = cells
            .iter()
            .map(|kind| {
                let v = match kind {
                    Cells::Nominal(arity) => Value::from_index(rng.random_range(0..*arity)),
                    Cells::Grid => GRID[rng.random_range(0..GRID.len())],
                    Cells::Continuum => rng.random_range(-5.0..5.0),
                    Cells::Constant(v) => *v,
                };
                score += v;
                if rng.random_bool(missing) {
                    Value::MISSING
                } else {
                    v
                }
            })
            .collect();
        let label = if rng.random_bool(0.1) {
            rng.random_range(0..k)
        } else {
            score.abs() as usize % k
        };
        row.push(if rng.random_bool(missing / 2.0) {
            Value::MISSING
        } else {
            Value::from_index(label)
        });
        let weight = if weighted && rng.random_bool(0.3) {
            [0.0, 0.1, 0.25, 1.0 / 3.0, 1.5, 2.75][rng.random_range(0..6usize)]
        } else {
            1.0
        };
        ds.push_row_weighted(row, weight)
            .expect("row fits the header");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_have_expected_counts_and_centres() {
        let blobs = vec![
            BlobSpec {
                center: vec![0.0, 0.0],
                stddev: 0.5,
                count: 200,
            },
            BlobSpec {
                center: vec![10.0, 10.0],
                stddev: 0.5,
                count: 100,
            },
        ];
        let ds = gaussian_blobs(&blobs, 7);
        assert_eq!(ds.num_instances(), 300);
        assert_eq!(ds.num_attributes(), 3);
        assert_eq!(ds.class_counts().unwrap(), vec![200.0, 100.0]);
        // Empirical mean of the second blob should be near (10, 10).
        let mut sum = [0.0, 0.0];
        let mut n = 0.0;
        for r in 0..ds.num_instances() {
            if ds.value(r, 2) == 1.0 {
                sum[0] += ds.value(r, 0);
                sum[1] += ds.value(r, 1);
                n += 1.0;
            }
        }
        assert!((sum[0] / n - 10.0).abs() < 0.3);
        assert!((sum[1] / n - 10.0).abs() < 0.3);
    }

    #[test]
    fn blobs_deterministic_per_seed() {
        let spec = vec![BlobSpec {
            center: vec![1.0],
            stddev: 1.0,
            count: 50,
        }];
        assert_eq!(gaussian_blobs(&spec, 3), gaussian_blobs(&spec, 3));
        assert_ne!(gaussian_blobs(&spec, 3), gaussian_blobs(&spec, 4));
    }

    #[test]
    fn baskets_plant_patterns() {
        let ds = market_baskets(20, 500, &[(&[1, 2, 3], 0.4)], 0.02, 11);
        assert_eq!(ds.num_instances(), 500);
        // Support of the planted triple should be near 40%.
        let support = (0..500)
            .filter(|&r| ds.value(r, 1) == 1.0 && ds.value(r, 2) == 1.0 && ds.value(r, 3) == 1.0)
            .count() as f64
            / 500.0;
        assert!(support > 0.3, "planted support {support} too low");
        // An un-planted item fires rarely.
        let lone = (0..500).filter(|&r| ds.value(r, 10) == 1.0).count() as f64 / 500.0;
        assert!(lone < 0.1, "noise item support {lone} too high");
    }

    #[test]
    fn nominal_classification_is_learnable() {
        let ds = nominal_classification(1000, 5, 3, 3, 0.0, 9);
        assert_eq!(ds.num_instances(), 1000);
        // With zero noise the class is exactly (a0 + a1) mod 3.
        for r in 0..100 {
            let want = (Value::as_index(ds.value(r, 0)) + Value::as_index(ds.value(r, 1))) % 3;
            assert_eq!(Value::as_index(ds.value(r, 5)), want);
        }
    }

    #[test]
    fn nominal_classification_noise_perturbs() {
        let clean = nominal_classification(500, 4, 2, 2, 0.0, 5);
        let noisy = nominal_classification(500, 4, 2, 2, 0.5, 5);
        assert_ne!(clean, noisy);
    }
}
