//! `KMeans::build` as it stood before the one-projection build: the
//! k-means++ seeding measured every row through the scalar
//! `DistanceSpace::distance_to_centroid`, each Lloyd iteration built a
//! fresh projection for its scan, and recentring gathered member lists
//! and read cells through `data.value`. Kept only as the oracle for the
//! differential tests below: the production build must yield the same
//! model, bit for bit, on every input.
//!
//! The assignment step here is the scalar per-row argmin (`nearest`),
//! to which the old columnar scan was pinned bit for bit
//! (`columnar_assignment_matches_scalar_nearest`).

use super::super::check_clusterable;
use super::{DistanceSpace, KMeans};
use crate::error::{AlgoError, Result};
use dm_data::{Dataset, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// The pre-change build and the helpers it called, over [`KMeans`].
pub(super) trait Reference {
    /// Build the clustering from `data`.
    fn build(&mut self, data: &Dataset) -> Result<()>;

    /// Nearest centroid per row, through the scalar path.
    fn assign_all(&self, data: &Dataset) -> Vec<usize>;

    /// One centroid from its member rows.
    fn recompute_centroid(&self, data: &Dataset, members: &[usize], centroid: &mut [f64]);
}

impl Reference for KMeans {
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
        let n_attrs = data.num_attributes();

        // k-means++ seeding: first centroid uniform, each subsequent one
        // drawn with probability proportional to the squared distance to
        // the nearest centroid chosen so far (avoids the classic bad
        // initialisation of two seeds landing in one cluster).
        let mut rng = StdRng::seed_from_u64(self.seed);
        let encode_row = |r: usize| -> Vec<f64> {
            (0..n_attrs)
                .map(|a| {
                    let v = data.value(r, a);
                    if self.space.skip[a] || Value::is_missing(v) {
                        0.0
                    } else if self.space.nominal[a] {
                        v
                    } else {
                        self.space.norm(a, v)
                    }
                })
                .collect()
        };
        let n = data.num_instances();
        let first = rng.random_range(0..n);
        self.centroids = vec![encode_row(first)];
        let mut nearest_sq: Vec<f64> = (0..n)
            .map(|r| {
                let d = self.space.distance_to_centroid(data, r, &self.centroids[0]);
                d * d
            })
            .collect();
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
            let centroid = encode_row(pick);
            for (r, slot) in nearest_sq.iter_mut().enumerate() {
                let d = self.space.distance_to_centroid(data, r, &centroid);
                *slot = slot.min(d * d);
            }
            self.centroids.push(centroid);
        }
        self.built = true;

        let mut assign = vec![usize::MAX; data.num_instances()];
        self.iterations_run = 0;
        for _ in 0..self.max_iterations {
            self.iterations_run += 1;
            // Parallel assignment step; centroid recomputation below
            // stays serial (it folds member rows in row order).
            let next = self.assign_all(data);
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
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.k];
            for (r, &c) in assign.iter().enumerate() {
                members[c].push(r);
            }
            let mut centroids = std::mem::take(&mut self.centroids);
            for (c, centroid) in centroids.iter_mut().enumerate() {
                if !members[c].is_empty() {
                    self.recompute_centroid(data, &members[c], centroid);
                }
            }
            self.centroids = centroids;
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

    fn assign_all(&self, data: &Dataset) -> Vec<usize> {
        (0..data.num_instances())
            .map(|r| self.nearest(data, r))
            .collect()
    }

    fn recompute_centroid(&self, data: &Dataset, members: &[usize], centroid: &mut [f64]) {
        let n_attrs = data.num_attributes();
        for a in 0..n_attrs {
            if self.space.skip[a] {
                centroid[a] = 0.0;
                continue;
            }
            if self.space.nominal[a] {
                let arity = data.attributes()[a].num_labels();
                let mut counts = vec![0usize; arity];
                for &r in members {
                    let v = data.value(r, a);
                    if !Value::is_missing(v) {
                        counts[Value::as_index(v)] += 1;
                    }
                }
                let mode = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroid[a] = Value::from_index(mode);
            } else {
                let mut sum = 0.0;
                let mut n = 0.0;
                for &r in members {
                    let v = data.value(r, a);
                    if !Value::is_missing(v) {
                        sum += self.space.norm(a, v);
                        n += 1.0;
                    }
                }
                centroid[a] = if n > 0.0 { sum / n } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests of the production build against [`Reference`].

    use super::*;
    use crate::cluster::Clusterer;
    use crate::options::Configurable;
    use crate::state::Stateful;
    use dm_data::Attribute;

    /// Counter-based generator (splitmix64) so a failing seed is the
    /// whole reproducer.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A dataset of `rows` rows mixing numeric columns (a continuum, a
    /// grid holding `-0.0` and `0.0`, or a constant) and nominal ones
    /// (one label up to 300, i.e. 16-bit codes), with cells missing at
    /// the given rate and, on odd seeds, a nominal class to skip.
    fn generated(g: &mut Gen, rows: usize, missing: f64) -> Dataset {
        const GRID: [f64; 6] = [-2.0, -0.0, 0.0, 0.5, 1.0, 4.0];
        let n_attrs = 1 + g.below(5);
        let mut attrs = Vec::new();
        let mut kinds = Vec::new();
        for a in 0..n_attrs {
            let kind = g.below(4);
            kinds.push(kind);
            attrs.push(match kind {
                0 => Attribute::nominal(
                    format!("n{a}"),
                    (0..[1, 2, 3, 5, 300][g.below(5)]).map(|l| format!("v{l}")),
                ),
                _ => Attribute::numeric(format!("x{a}")),
            });
        }
        let with_class = g.below(2) == 1;
        if with_class {
            attrs.push(Attribute::nominal("class", ["a", "b"]));
        }
        let mut ds = Dataset::new("generated", attrs.clone());
        if with_class {
            ds.set_class_index(Some(n_attrs)).unwrap();
        }
        let centre = g.below(3) as f64 * 5.0;
        for _ in 0..rows {
            let mut row = Vec::new();
            for (a, &kind) in kinds.iter().enumerate() {
                let v = match kind {
                    0 => g.below(attrs[a].num_labels()) as f64,
                    1 => centre + g.unit() * 10.0,
                    2 => GRID[g.below(GRID.len())],
                    _ => 7.0,
                };
                row.push(if g.unit() < missing { f64::NAN } else { v });
            }
            if with_class {
                row.push(g.below(2) as f64);
            }
            ds.push_row(row).unwrap();
        }
        ds
    }

    const OPTIONS: [&[(&str, &str)]; 6] = [
        &[],
        &[("-N", "1")],
        &[("-N", "3"), ("-S", "1")],
        &[("-N", "5"), ("-S", "42")],
        &[("-N", "4"), ("-I", "1")],
        &[("-N", "3"), ("-I", "2"), ("-S", "7")],
    ];

    /// Build every option set both ways and compare the encoded models;
    /// returns the Lloyd iterations run.
    fn assert_matches_reference(data: &Dataset, what: &str) -> usize {
        let mut iterations = 0;
        for options in OPTIONS {
            let mut km = KMeans::new();
            for (flag, value) in options {
                km.set_option(flag, value).unwrap();
            }
            let mut reference = km.clone();
            let built = Clusterer::build(&mut km, data);
            let expected = Reference::build(&mut reference, data);
            assert_eq!(
                built.is_ok(),
                expected.is_ok(),
                "{what}, options {options:?}"
            );
            assert!(
                km.encode_state() == reference.encode_state(),
                "{what}, options {options:?}: model differs from the reference"
            );
            iterations += km.iterations_run;
        }
        iterations
    }

    #[test]
    fn build_matches_reference_on_generated_datasets() {
        let mut iterations = 0;
        for seed in 0..54u64 {
            let mut g = Gen(seed);
            let rows = 1 + g.below(400);
            let missing = [0.0, 0.05, 0.3][seed as usize % 3];
            let data = generated(&mut g, rows, missing);
            iterations += assert_matches_reference(&data, &format!("seed {seed}"));
        }
        assert!(iterations > 500, "only {iterations} Lloyd iterations run");
    }

    fn as_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn seed_weights_match_scalar_distance_squares() {
        // A last-bit difference in a seeding weight rarely changes the
        // k-means++ pick, so compare every row's weight with the scalar
        // distance, squared, bit for bit: against a seed centroid (an
        // encoded row) and against an arbitrary one with missing values.
        for seed in 0..30u64 {
            let mut g = Gen(500 + seed);
            let rows = 1 + g.below(300);
            let data = generated(&mut g, rows, [0.0, 0.05, 0.3][seed as usize % 3]);
            let space = DistanceSpace::fit(&data);
            let proj = super::super::Projection::build(&space, &data).unwrap();
            let arbitrary: Vec<f64> = (0..data.num_attributes())
                .map(|a| {
                    if g.below(5) == 0 {
                        f64::NAN
                    } else if space.nominal[a] {
                        g.below(data.attributes()[a].num_labels().max(1)) as f64
                    } else {
                        g.unit()
                    }
                })
                .collect();
            for centroid in [proj.encode_row(g.below(rows)), arbitrary] {
                let expected: Vec<f64> = (0..rows)
                    .map(|r| {
                        let d = space.distance_to_centroid(&data, r, &centroid);
                        d * d
                    })
                    .collect();
                assert_eq!(
                    as_bits(&proj.seed_weights(&centroid, rows)),
                    as_bits(&expected),
                    "seed {seed}, centroid {centroid:?}"
                );
            }
        }
    }

    #[test]
    fn recentring_matches_reference_bit_for_bit() {
        for seed in 0..30u64 {
            let mut g = Gen(700 + seed);
            let rows = 1 + g.below(300);
            let data = generated(&mut g, rows, [0.0, 0.05, 0.3][seed as usize % 3]);
            let k = 1 + g.below(5);
            let mut km = KMeans::with_k(k);
            km.space = DistanceSpace::fit(&data);
            km.centroids = vec![vec![0.5; data.num_attributes()]; k];
            let assign: Vec<usize> = (0..rows).map(|_| g.below(k)).collect();
            let mut expected = km.centroids.clone();
            for (c, centroid) in expected.iter_mut().enumerate() {
                let members: Vec<usize> = (0..rows).filter(|&r| assign[r] == c).collect();
                if !members.is_empty() {
                    Reference::recompute_centroid(&km, &data, &members, centroid);
                }
            }
            let proj = super::super::Projection::build(&km.space, &data).unwrap();
            km.recentre(&proj, &data, &assign);
            for (c, centroid) in km.centroids.iter().enumerate() {
                assert_eq!(
                    as_bits(centroid),
                    as_bits(&expected[c]),
                    "seed {seed}, cluster {c}"
                );
            }
        }
    }

    #[test]
    fn build_matches_reference_across_scan_blocks_and_pool_widths() {
        let mut g = Gen(99);
        let data = generated(&mut g, 2500, 0.05);
        for threads in [1, 2, 8] {
            crate::pool::with_threads(threads, || {
                assert_matches_reference(&data, &format!("2,500 rows at {threads} threads"))
            });
        }
    }

    #[test]
    fn build_matches_reference_on_the_corpus() {
        for data in [
            dm_data::corpus::breast_cancer(),
            dm_data::corpus::weather_numeric(),
            dm_data::corpus::nominal_classification(300, 10, 4, 3, 0.1, 5),
        ] {
            assert_matches_reference(&data, data.relation());
        }
    }
}
